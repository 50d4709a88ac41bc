/**
 * @file
 * Protocol-level unit tests of the MESI+U coherence implementation,
 * driven directly through MemorySystem with a real HtmManager beside
 * it: the five GETU cases (Sec. III-B3), reductions (III-B4), gathers
 * (Sec. IV), U-line evictions (III-B5), and conflict resolution
 * (Fig. 6), without the runtime layer. Tests open transactions with
 * beginAttempt, whose order sets the relative timestamps (earlier
 * begin = older = wins), and read aborts back from doomed() and
 * doomCause().
 */

#include <gtest/gtest.h>

#include <cstring>

#include "htm/htm.h"
#include "mem/coherence.h"
#include "sim/invariants.h"

namespace commtm {
namespace {

class CoherenceTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        cfg_.numCores = 8;
        cfg_.hwLabels = 8;
        registry_ = std::make_unique<LabelRegistry>(cfg_.hwLabels);
        add_ = registry_->define(labels::makeAdd<int64_t>("ADD"));
        min_ = registry_->define(labels::makeMin<int64_t>("MIN"));
        rng_ = std::make_unique<Rng>(1);
        mem_ = std::make_unique<MemorySystem>(cfg_, memory_, *registry_,
                                              stats_, *rng_);
        htm_ = std::make_unique<HtmManager>(cfg_, *mem_, memory_);
    }

    /** Transactional access by @p core, whose attempt must be open. */
    AccessResult
    txAccess(CoreId core, Addr addr, MemOp op, Label label = kNoLabel)
    {
        return access(core, addr, op, label, true, htm_->txTs(core));
    }

    /** No core's transaction has been doomed. */
    bool
    noneDoomed() const
    {
        for (CoreId c = 0; c < cfg_.numCores; c++) {
            if (htm_->doomed(c))
                return false;
        }
        return true;
    }

    AccessResult
    access(CoreId core, Addr addr, MemOp op, Label label = kNoLabel,
           bool is_tx = false, Timestamp ts = 0)
    {
        Access a;
        a.core = core;
        a.addr = addr;
        a.size = 8;
        a.op = op;
        a.label = label;
        a.isTx = is_tx;
        a.ts = ts;
        return mem_->access(a);
    }

    int64_t
    uValue(CoreId core, Addr line)
    {
        int64_t v;
        std::memcpy(&v, mem_->uCopy(core, line).data(), sizeof(v));
        return v;
    }

    void
    setUValue(CoreId core, Addr line, int64_t v)
    {
        std::memcpy(mem_->uCopy(core, line).data(), &v, sizeof(v));
    }

    MachineConfig cfg_;
    SimMemory memory_;
    std::unique_ptr<LabelRegistry> registry_;
    Label add_{}, min_{};
    MachineStats stats_;
    std::unique_ptr<Rng> rng_;
    std::unique_ptr<MemorySystem> mem_;
    std::unique_ptr<HtmManager> htm_;
};

constexpr Addr kLine = 0x40000; // line-aligned test address

TEST_F(CoherenceTest, GetsGrantsExclusiveCleanToFirstReader)
{
    access(0, kLine, MemOp::Load);
    EXPECT_EQ(mem_->privState(0, lineAddr(kLine)), PrivState::E);
    EXPECT_EQ(mem_->dirState(lineAddr(kLine)), DirState::M);
}

TEST_F(CoherenceTest, SecondReaderDowngradesOwnerToShared)
{
    access(0, kLine, MemOp::Load);
    access(1, kLine, MemOp::Load);
    EXPECT_EQ(mem_->privState(0, lineAddr(kLine)), PrivState::S);
    EXPECT_EQ(mem_->privState(1, lineAddr(kLine)), PrivState::S);
    EXPECT_EQ(mem_->dirState(lineAddr(kLine)), DirState::S);
    EXPECT_EQ(mem_->sharerCount(lineAddr(kLine)), 2u);
}

TEST_F(CoherenceTest, StoreInvalidatesSharers)
{
    access(0, kLine, MemOp::Load);
    access(1, kLine, MemOp::Load);
    access(2, kLine, MemOp::Store);
    EXPECT_EQ(mem_->privState(0, lineAddr(kLine)), PrivState::I);
    EXPECT_EQ(mem_->privState(1, lineAddr(kLine)), PrivState::I);
    EXPECT_EQ(mem_->privState(2, lineAddr(kLine)), PrivState::M);
    EXPECT_EQ(mem_->dirState(lineAddr(kLine)), DirState::M);
}

TEST_F(CoherenceTest, SilentEToMUpgradeOnLocalStore)
{
    access(0, kLine, MemOp::Load);
    ASSERT_EQ(mem_->privState(0, lineAddr(kLine)), PrivState::E);
    const uint64_t gets_before = stats_.totalL3Gets();
    access(0, kLine, MemOp::Store);
    EXPECT_EQ(mem_->privState(0, lineAddr(kLine)), PrivState::M);
    EXPECT_EQ(stats_.totalL3Gets(), gets_before); // no dir traffic
}

TEST_F(CoherenceTest, WritebackCountsOnlyModifiedCopiesLeavingOwner)
{
    const Addr a = kLine, b = kLine + 0x1000, c = kLine + 0x2000;
    // A clean E owner downgraded to S writes nothing back.
    access(0, a, MemOp::Load);
    access(1, a, MemOp::Load);
    EXPECT_EQ(stats_.writebacks, 0u);
    // An M owner downgraded to S, or invalidated, writes back once.
    access(0, b, MemOp::Store);
    access(1, b, MemOp::Load);
    EXPECT_EQ(stats_.writebacks, 1u);
    access(0, c, MemOp::Store);
    access(1, c, MemOp::Store);
    EXPECT_EQ(stats_.writebacks, 2u);
    // GETU Case 5: the M owner's data stays in its U copy.
    access(2, c, MemOp::LabeledStore, add_);
    EXPECT_EQ(mem_->privState(1, lineAddr(c)), PrivState::U);
    EXPECT_EQ(stats_.writebacks, 2u);
}

TEST_F(CoherenceTest, L3EvictionWritesBackOnlyModifiedOwners)
{
    SimMemory memory2;
    MachineStats stats2;
    Rng rng2(3);
    MachineConfig geom;
    geom.numCores = 1;
    geom.l3SizeKB = 1; // 16 lines, 2 ways -> 8 sets
    geom.l3Ways = 2;
    LabelRegistry reg(geom.hwLabels);
    MemorySystem ms(geom, memory2, reg, stats2, rng2);
    HtmManager htm(geom, ms, memory2);
    const auto issue = [&](Addr line, MemOp op) {
        Access a;
        a.addr = lineBase(line);
        a.op = op;
        ms.access(a);
    };
    // Lines 8 apart share an L3 set; a third fill evicts the LRU one
    // and back-invalidates its owner.
    const Addr line = lineAddr(0x500000);
    issue(line, MemOp::Load); // E
    issue(line + 8, MemOp::Store);
    issue(line + 16, MemOp::Store);
    ASSERT_EQ(ms.privState(0, line), PrivState::I);
    EXPECT_EQ(stats2.writebacks, 0u);
    issue(line + 24, MemOp::Store); // evicts line + 8, held in M
    ASSERT_EQ(ms.privState(0, line + 8), PrivState::I);
    EXPECT_EQ(stats2.writebacks, 1u);
}

// --- The five GETU cases (Sec. III-B3) ---

TEST_F(CoherenceTest, GetuCase1_NoSharers_ServesData)
{
    memory_.write<int64_t>(kLine, 24);
    access(0, kLine, MemOp::LabeledLoad, add_);
    EXPECT_EQ(mem_->privState(0, lineAddr(kLine)), PrivState::U);
    EXPECT_EQ(mem_->dirState(lineAddr(kLine)), DirState::U);
    EXPECT_EQ(mem_->dirLabel(lineAddr(kLine)), add_);
    // The requester absorbed the memory value (Fig. 4a).
    EXPECT_EQ(uValue(0, lineAddr(kLine)), 24);
}

TEST_F(CoherenceTest, GetuCase2_InvalidatesReadOnlySharers)
{
    memory_.write<int64_t>(kLine, 7);
    access(0, kLine, MemOp::Load);
    access(1, kLine, MemOp::Load);
    access(2, kLine, MemOp::LabeledLoad, add_);
    EXPECT_EQ(mem_->privState(0, lineAddr(kLine)), PrivState::I);
    EXPECT_EQ(mem_->privState(1, lineAddr(kLine)), PrivState::I);
    EXPECT_EQ(mem_->privState(2, lineAddr(kLine)), PrivState::U);
    EXPECT_EQ(uValue(2, lineAddr(kLine)), 7);
}

TEST_F(CoherenceTest, GetuCase3_DifferentLabelReducesAndRelabels)
{
    memory_.write<int64_t>(kLine, 10);
    access(0, kLine, MemOp::LabeledLoad, add_); // absorbs 10
    access(1, kLine, MemOp::LabeledLoad, add_); // identity 0
    setUValue(1, lineAddr(kLine), 5);           // simulate local adds
    access(2, kLine, MemOp::LabeledLoad, min_);
    // Old copies merged with the ADD reduction (10 + 5), then the line
    // re-enters U under MIN at the requester only.
    EXPECT_EQ(mem_->dirState(lineAddr(kLine)), DirState::U);
    EXPECT_EQ(mem_->dirLabel(lineAddr(kLine)), min_);
    EXPECT_EQ(mem_->sharerCount(lineAddr(kLine)), 1u);
    EXPECT_EQ(uValue(2, lineAddr(kLine)), 15);
    EXPECT_EQ(mem_->privState(0, lineAddr(kLine)), PrivState::I);
    EXPECT_EQ(mem_->privState(1, lineAddr(kLine)), PrivState::I);
}

TEST_F(CoherenceTest, GetuCase4_SameLabelGrantsIdentityWithoutData)
{
    memory_.write<int64_t>(kLine, 24);
    access(0, kLine, MemOp::LabeledLoad, add_);
    access(1, kLine, MemOp::LabeledLoad, add_);
    EXPECT_EQ(mem_->sharerCount(lineAddr(kLine)), 2u);
    EXPECT_EQ(uValue(0, lineAddr(kLine)), 24); // kept the data
    EXPECT_EQ(uValue(1, lineAddr(kLine)), 0);  // identity (Fig. 4a/4b)
}

TEST_F(CoherenceTest, GetuCase5_DowngradesExclusiveOwnerWhoKeepsData)
{
    memory_.write<int64_t>(kLine, 24);
    access(0, kLine, MemOp::Store); // owner in M
    access(1, kLine, MemOp::LabeledLoad, add_);
    // Fig. 4b: owner downgraded M->U and retains the data; the
    // requester initializes to the identity.
    EXPECT_EQ(mem_->privState(0, lineAddr(kLine)), PrivState::U);
    EXPECT_EQ(mem_->privState(1, lineAddr(kLine)), PrivState::U);
    EXPECT_EQ(uValue(0, lineAddr(kLine)), 24);
    EXPECT_EQ(uValue(1, lineAddr(kLine)), 0);
    EXPECT_EQ(mem_->sharerCount(lineAddr(kLine)), 2u);
}

// --- Reductions (Sec. III-B4) ---

TEST_F(CoherenceTest, ConventionalLoadTriggersFullReduction)
{
    memory_.write<int64_t>(kLine, 3);
    access(0, kLine, MemOp::LabeledLoad, add_);
    access(1, kLine, MemOp::LabeledLoad, add_);
    access(2, kLine, MemOp::LabeledLoad, add_);
    setUValue(1, lineAddr(kLine), 20);
    setUValue(2, lineAddr(kLine), 100);
    const uint64_t reductions_before = stats_.reductions;
    access(3, kLine, MemOp::Load);
    EXPECT_EQ(stats_.reductions, reductions_before + 1);
    EXPECT_EQ(mem_->dirState(lineAddr(kLine)), DirState::M);
    EXPECT_EQ(memory_.read<int64_t>(kLine), 123);
    EXPECT_EQ(mem_->privState(3, lineAddr(kLine)), PrivState::M);
    EXPECT_EQ(mem_->privState(0, lineAddr(kLine)), PrivState::I);
}

TEST_F(CoherenceTest, SoleSharerUnlabeledAccessConvertsLocally)
{
    memory_.write<int64_t>(kLine, 42);
    access(0, kLine, MemOp::LabeledLoad, add_);
    access(0, kLine, MemOp::Load); // sole sharer: U -> M, no conflict
    EXPECT_EQ(mem_->dirState(lineAddr(kLine)), DirState::M);
    EXPECT_EQ(memory_.read<int64_t>(kLine), 42);
    EXPECT_TRUE(noneDoomed());
}

TEST_F(CoherenceTest, ReductionInvariant_ValueEqualsReducedCopies)
{
    memory_.write<int64_t>(kLine, 1);
    access(0, kLine, MemOp::LabeledLoad, add_);
    access(1, kLine, MemOp::LabeledLoad, add_);
    setUValue(0, lineAddr(kLine), 11);
    setUValue(1, lineAddr(kLine), 31);
    const LineData reduced = mem_->debugReducedValue(lineAddr(kLine));
    int64_t v;
    std::memcpy(&v, reduced.data(), sizeof(v));
    EXPECT_EQ(v, 42);
    EXPECT_EQ(mem_->debugUCopies(lineAddr(kLine)).size(), 2u);
}

// --- Conflicts (Fig. 6) ---

TEST_F(CoherenceTest, OlderRequesterAbortsYoungerLabeledHolder)
{
    htm_->beginAttempt(1); // older
    htm_->beginAttempt(0);
    txAccess(0, kLine, MemOp::LabeledLoad, add_);
    // Older conventional load: reduction; core 0 must abort.
    const AccessResult r = txAccess(1, kLine, MemOp::Load);
    EXPECT_FALSE(r.mustAbort());
    ASSERT_TRUE(htm_->doomed(0));
    EXPECT_FALSE(htm_->doomed(1));
    EXPECT_EQ(htm_->doomCause(0), AbortCause::LabeledConflict);
}

TEST_F(CoherenceTest, YoungerRequesterGetsNackedAndKeepsMergedData)
{
    htm_->beginAttempt(0); // older
    htm_->beginAttempt(1);
    txAccess(0, kLine, MemOp::LabeledLoad, add_);
    const AccessResult r = txAccess(1, kLine, MemOp::Load);
    EXPECT_TRUE(r.nackAbort);
    EXPECT_EQ(stats_.nacks, 1u);
    EXPECT_TRUE(noneDoomed());
    // The holder keeps its U copy (Fig. 6b).
    EXPECT_EQ(mem_->dirState(lineAddr(kLine)), DirState::U);
    EXPECT_TRUE(mem_->coreHasU(0, lineAddr(kLine)));
}

TEST_F(CoherenceTest, NonSpeculativeRequestsCannotBeNacked)
{
    htm_->beginAttempt(0);
    txAccess(0, kLine, MemOp::LabeledLoad, add_);
    const AccessResult r = access(1, kLine, MemOp::Load); // non-tx
    EXPECT_FALSE(r.mustAbort());
    ASSERT_TRUE(htm_->doomed(0));
    EXPECT_FALSE(htm_->doomed(1));
}

TEST_F(CoherenceTest, ReadAfterWriteConflictClassified)
{
    htm_->beginAttempt(1); // older
    htm_->beginAttempt(0);
    txAccess(0, kLine, MemOp::Store);
    txAccess(1, kLine, MemOp::Load);
    ASSERT_TRUE(htm_->doomed(0));
    EXPECT_FALSE(htm_->doomed(1));
    EXPECT_EQ(htm_->doomCause(0), AbortCause::ReadAfterWrite);
}

TEST_F(CoherenceTest, WriteAfterReadConflictClassified)
{
    htm_->beginAttempt(1); // older
    htm_->beginAttempt(0);
    txAccess(0, kLine, MemOp::Load);
    txAccess(1, kLine, MemOp::Store);
    ASSERT_TRUE(htm_->doomed(0));
    EXPECT_FALSE(htm_->doomed(1));
    EXPECT_EQ(htm_->doomCause(0), AbortCause::WriteAfterRead);
}

TEST_F(CoherenceTest, ReadersDoNotConflictWithSpeculativeReaders)
{
    htm_->beginAttempt(1); // older
    htm_->beginAttempt(0);
    txAccess(0, kLine, MemOp::Load);
    txAccess(1, kLine, MemOp::Load);
    EXPECT_TRUE(noneDoomed());
}

TEST_F(CoherenceTest, SelfDemotionOnUnlabeledAccessToModifiedLabeledData)
{
    htm_->beginAttempt(0);
    htm_->beginAttempt(1);
    txAccess(0, kLine, MemOp::LabeledLoad, add_);
    txAccess(1, kLine, MemOp::LabeledLoad, add_);
    const int64_t v = 1; // core 0 speculatively modifies the line
    htm_->writeBuffer(0).write(kLine, &v, sizeof(v));
    const AccessResult r = txAccess(0, kLine, MemOp::Load);
    EXPECT_TRUE(r.selfDemote);
    EXPECT_EQ(r.cause, AbortCause::SelfDemotion);
}

// --- Gathers (Sec. IV) ---

TEST_F(CoherenceTest, GatherRebalancesValueAcrossSharers)
{
    memory_.write<int64_t>(kLine, 128);
    access(0, kLine, MemOp::LabeledLoad, add_); // absorbs 128
    access(1, kLine, MemOp::LabeledLoad, add_); // identity
    access(1, kLine, MemOp::Gather, add_);
    // Two sharers: core 0 donates floor(128/2) = 64.
    EXPECT_EQ(uValue(0, lineAddr(kLine)), 64);
    EXPECT_EQ(uValue(1, lineAddr(kLine)), 64);
    EXPECT_EQ(mem_->dirState(lineAddr(kLine)), DirState::U);
    EXPECT_EQ(mem_->sharerCount(lineAddr(kLine)), 2u);
    EXPECT_EQ(stats_.gathers, 1u);
    EXPECT_EQ(stats_.splits, 1u);
}

TEST_F(CoherenceTest, GatherSkipsSharersWithNothingToDonate)
{
    memory_.write<int64_t>(kLine, 1);
    access(0, kLine, MemOp::LabeledLoad, add_); // absorbs 1
    access(1, kLine, MemOp::LabeledLoad, add_);
    access(2, kLine, MemOp::LabeledLoad, add_);
    htm_->beginAttempt(0); // would conflict if split
    htm_->beginAttempt(2);
    txAccess(2, kLine, MemOp::Gather, add_);
    // floor(1/3) == 0: nothing to donate, so no split and no conflict.
    EXPECT_TRUE(noneDoomed());
    EXPECT_EQ(stats_.splits, 0u);
    EXPECT_EQ(uValue(0, lineAddr(kLine)), 1);
}

TEST_F(CoherenceTest, GatherAgainstOlderHolderGetsNacked)
{
    memory_.write<int64_t>(kLine, 100);
    htm_->beginAttempt(0); // older
    htm_->beginAttempt(1);
    txAccess(0, kLine, MemOp::LabeledLoad, add_);
    txAccess(1, kLine, MemOp::LabeledLoad, add_);
    const AccessResult r = txAccess(1, kLine, MemOp::Gather, add_);
    EXPECT_TRUE(r.nackAbort);
    EXPECT_EQ(r.cause, AbortCause::GatherAfterLabeled);
    EXPECT_EQ(uValue(0, lineAddr(kLine)), 100); // donor untouched
}

TEST_F(CoherenceTest, GatherAcquiresUWhenNotYetSharing)
{
    memory_.write<int64_t>(kLine, 64);
    access(0, kLine, MemOp::LabeledLoad, add_);
    access(1, kLine, MemOp::Gather, add_); // GETU first, then gather
    EXPECT_TRUE(mem_->coreHasU(1, lineAddr(kLine)));
    EXPECT_EQ(uValue(0, lineAddr(kLine)) + uValue(1, lineAddr(kLine)), 64);
}

// --- Evictions (Sec. III-B5) ---

TEST_F(CoherenceTest, SoleSharerUEvictionWritesBack)
{
    // Tiny private caches so a handful of fills force evictions.
    SimMemory memory2;
    MachineStats stats2;
    Rng rng2(3);
    MachineConfig geom;
    geom.numCores = 2;
    geom.l1SizeKB = 1; // 16 lines, 8 ways -> 2 sets
    geom.l2SizeKB = 2; // 32 lines, 8 ways -> 4 sets
    LabelRegistry reg(geom.hwLabels);
    const Label add = reg.define(labels::makeAdd<int64_t>("ADD"));
    MemorySystem ms(geom, memory2, reg, stats2, rng2);
    HtmManager htm(geom, ms, memory2);

    // Touch one line with a labeled store, then flood its L2 set.
    const Addr base = 0x100000;
    memory2.write<int64_t>(base, 77);
    Access a;
    a.core = 0;
    a.addr = base;
    a.size = 8;
    a.op = MemOp::LabeledStore;
    a.label = add;
    ms.access(a);
    ASSERT_TRUE(ms.coreHasU(0, lineAddr(base)));
    // Flood: lines mapping to the same L2 set (stride = sets * 64).
    const uint32_t l2_sets = geom.l2Lines() / geom.l2Ways;
    for (uint32_t i = 1; i <= geom.l2Ways + 1; i++) {
        Access f;
        f.core = 0;
        f.addr = base + Addr(i) * l2_sets * kLineSize;
        f.size = 8;
        f.op = MemOp::Load;
        ms.access(f);
    }
    // The U line was evicted from the private hierarchy: written back.
    EXPECT_FALSE(ms.coreHasU(0, lineAddr(base)));
    EXPECT_EQ(ms.dirState(lineAddr(base)), DirState::NonCached);
    EXPECT_EQ(memory2.read<int64_t>(base), 77);
    EXPECT_EQ(stats2.uWritebacks, 1u);
}

TEST_F(CoherenceTest, MultiSharerUEvictionForwardsToAnotherSharer)
{
    SimMemory memory2;
    MachineStats stats2;
    Rng rng2(3);
    MachineConfig geom;
    geom.numCores = 2;
    geom.l1SizeKB = 1;
    geom.l2SizeKB = 2;
    LabelRegistry reg(geom.hwLabels);
    const Label add = reg.define(labels::makeAdd<int64_t>("ADD"));
    MemorySystem ms(geom, memory2, reg, stats2, rng2);
    HtmManager htm(geom, ms, memory2);

    const Addr base = 0x200000;
    memory2.write<int64_t>(base, 50);
    for (CoreId c = 0; c < 2; c++) {
        Access a;
        a.core = c;
        a.addr = base;
        a.size = 8;
        a.op = MemOp::LabeledStore;
        a.label = add;
        ms.access(a);
    }
    // Core 0 has 50 (absorbed), core 1 identity; bump core 0 to check
    // the forward-merge.
    const uint32_t l2_sets = geom.l2Lines() / geom.l2Ways;
    for (uint32_t i = 1; i <= geom.l2Ways + 1; i++) {
        Access f;
        f.core = 0;
        f.addr = base + Addr(i) * l2_sets * kLineSize;
        f.size = 8;
        f.op = MemOp::Load;
        ms.access(f);
    }
    EXPECT_FALSE(ms.coreHasU(0, lineAddr(base)));
    ASSERT_TRUE(ms.coreHasU(1, lineAddr(base)));
    int64_t v;
    std::memcpy(&v, ms.uCopy(1, lineAddr(base)).data(), sizeof(v));
    EXPECT_EQ(v, 50); // core 0's copy merged into core 1's
    EXPECT_EQ(stats2.uForwards, 1u);
}

TEST_F(CoherenceTest, MultiSharerL3UEvictionReducesAllCopies)
{
    // Inclusive L3 eviction of a line with four U sharers (Sec.
    // III-B5): the copies reduce into memory, and a transaction that
    // accessed the line dies with UEviction.
    SimMemory memory2;
    MachineStats stats2;
    Rng rng2(3);
    MachineConfig geom;
    geom.numCores = 4;
    geom.l3SizeKB = 1; // 16 lines, 2 ways -> 8 sets
    geom.l3Ways = 2;
    LabelRegistry reg(geom.hwLabels);
    const Label add = reg.define(labels::makeAdd<int64_t>("ADD"));
    MemorySystem ms(geom, memory2, reg, stats2, rng2);
    HtmManager htm(geom, ms, memory2);
    const auto issue = [&](CoreId core, Addr addr, MemOp op, Label label,
                           bool is_tx) {
        Access a;
        a.core = core;
        a.addr = addr;
        a.size = 8;
        a.op = op;
        a.label = label;
        a.isTx = is_tx;
        a.ts = is_tx ? htm.txTs(core) : 0;
        return ms.access(a);
    };

    const Addr base = 0x300000;
    const Addr line = lineAddr(base);
    memory2.write<int64_t>(base, 5);
    const int64_t copies[4] = {5, 10, 20, 40};
    for (CoreId c = 0; c < 4; c++) {
        issue(c, base, MemOp::LabeledStore, add, false);
        std::memcpy(ms.uCopy(c, line).data(), &copies[c], 8);
    }
    ASSERT_EQ(ms.dirState(line), DirState::U);
    ASSERT_EQ(ms.sharerCount(line), 4u);

    // Core 2 opens a transaction and reads the line labeled (L1 hit).
    htm.beginAttempt(2);
    ASSERT_FALSE(
        issue(2, base, MemOp::LabeledLoad, add, true).mustAbort());

    // Fill both ways of the line's L3 set from core 3: the U line is
    // the LRU way, so the second fill evicts it.
    const uint32_t l3_sets = geom.l3Lines() / geom.l3Ways;
    for (uint32_t i = 1; i <= geom.l3Ways; i++)
        issue(3, base + Addr(i) * l3_sets * kLineSize, MemOp::Load,
              kNoLabel, false);

    EXPECT_EQ(ms.dirState(line), DirState::NonCached);
    for (CoreId c = 0; c < 4; c++)
        EXPECT_FALSE(ms.coreHasU(c, line));
    EXPECT_EQ(memory2.read<int64_t>(base), 5 + 10 + 20 + 40);
    EXPECT_TRUE(htm.doomed(2));
    EXPECT_EQ(htm.doomCause(2), AbortCause::UEviction);
    EXPECT_EQ(stats2.reductions, 1u);
    InvariantChecker checker(geom, ms, htm);
    std::vector<InvariantViolation> violations;
    EXPECT_EQ(checker.sweep(violations), 0u)
        << (violations.empty() ? "" : violations[0].message);
}

TEST_F(CoherenceTest, StoreHittingExclusiveL2LineUpgradesBothLevels)
{
    // A line read in E falls out of the L1 but stays in the L2; a
    // store then hits the L2 and upgrades E -> M locally, with no
    // directory request.
    SimMemory memory2;
    MachineStats stats2;
    Rng rng2(3);
    MachineConfig geom;
    geom.numCores = 2;
    geom.l1SizeKB = 1; // 16 lines, 8 ways -> 2 sets
    LabelRegistry reg(geom.hwLabels);
    MemorySystem ms(geom, memory2, reg, stats2, rng2);
    HtmManager htm(geom, ms, memory2);
    const auto issue = [&](CoreId core, Addr addr, MemOp op) {
        Access a;
        a.core = core;
        a.addr = addr;
        a.size = 8;
        a.op = op;
        return ms.access(a);
    };

    const Addr base = 0x400000;
    const Addr line = lineAddr(base);
    issue(0, base, MemOp::Load);
    ASSERT_EQ(ms.privState(0, line), PrivState::E);
    // Evict the line from the L1 only: its L1 set's other lines map
    // to distinct L2 sets.
    const uint32_t l1_sets = geom.l1Lines() / geom.l1Ways;
    for (uint32_t i = 1; i <= geom.l1Ways; i++)
        issue(0, base + Addr(i) * l1_sets * kLineSize, MemOp::Load);

    const uint64_t l2_hits = stats2.l2Hits;
    const uint64_t getx = stats2.l3Gets[size_t(GetType::GETX)];
    issue(0, base, MemOp::Store);
    EXPECT_EQ(stats2.l2Hits, l2_hits + 1); // served by the L2
    EXPECT_EQ(stats2.l3Gets[size_t(GetType::GETX)], getx);
    EXPECT_EQ(ms.privState(0, line), PrivState::M);
    EXPECT_EQ(ms.dirState(line), DirState::M);
    // Inclusion (L1 and L2 agree on the state) holds machine-wide.
    InvariantChecker checker(geom, ms, htm);
    std::vector<InvariantViolation> violations;
    EXPECT_EQ(checker.sweep(violations), 0u)
        << (violations.empty() ? "" : violations[0].message);
    // Both levels hold the line in M: a remote read downgrades the
    // owner and writes the line back once.
    const uint64_t writebacks = stats2.writebacks;
    issue(1, base, MemOp::Load);
    EXPECT_EQ(stats2.writebacks, writebacks + 1);
    EXPECT_EQ(ms.privState(0, line), PrivState::S);
}

} // namespace
} // namespace commtm
