/**
 * @file
 * MemorySystem implementation: the MESI+U protocol state machine
 * (GETS/GETX/GETU/gather directory handlers), reductions and splits on
 * the shadow thread, timestamp conflict resolution (battle), private-
 * and shared-cache evictions, and latency accounting over the NoC.
 */

#include "mem/coherence.h"

#include <algorithm>
#include <cassert>
#include <cstdio>

// Only the .cc sees the transaction manager: mem/ headers stay free
// of htm/ while the protocol calls HtmManager's inline methods.
#include "htm/htm.h"
#include "sim/check.h"
#include "sim/invariants.h"

namespace commtm {

const char *
privStateName(PrivState state)
{
    switch (state) {
      case PrivState::I: return "I";
      case PrivState::S: return "S";
      case PrivState::E: return "E";
      case PrivState::M: return "M";
      case PrivState::U: return "U";
    }
    return "?";
}

const char *
dirStateName(DirState state)
{
    switch (state) {
      case DirState::NonCached: return "NonCached";
      case DirState::S: return "S";
      case DirState::M: return "M";
      case DirState::U: return "U";
    }
    return "?";
}

MemorySystem::MemorySystem(const MachineConfig &cfg, SimMemory &memory,
                           const LabelRegistry &labels, MachineStats &stats,
                           Rng &rng)
    : cfg_(cfg), memory_(memory), labels_(labels), stats_(stats), rng_(rng),
      noc_(cfg), l3_(cfg.l3Lines(), cfg.l3Ways)
{
    cores_.reserve(cfg.numCores);
    for (uint32_t c = 0; c < cfg.numCores; c++) {
        cores_.push_back(std::make_unique<PerCore>(
            cfg.l1Lines(), cfg.l1Ways, cfg.l2Lines(), cfg.l2Ways));
    }
}

// ---------------------------------------------------------------------
// Handler (shadow thread) context
// ---------------------------------------------------------------------

void
MemorySystem::HandlerCtx::rawRead(Addr addr, void *out, size_t size)
{
    auto *dst = static_cast<uint8_t *>(out);
    while (size > 0) {
        const size_t chunk =
            std::min(size, size_t(kLineSize - lineOffset(addr)));
        Access a;
        a.core = core_;
        a.addr = addr;
        a.size = uint32_t(chunk);
        a.op = MemOp::Load;
        a.handler = true;
        const AccessResult r = ms_.access(a);
        COMMTM_CHECK(!r.mustAbort(),
                     "handler read of 0x%llx aborted; handlers are "
                     "non-speculative and must always win",
                     (unsigned long long)addr);
        lat_ += r.latency;
        ms_.memory_.read(addr, dst, chunk);
        dst += chunk;
        addr += chunk;
        size -= chunk;
    }
}

void
MemorySystem::HandlerCtx::rawWrite(Addr addr, const void *src, size_t size)
{
    const auto *from = static_cast<const uint8_t *>(src);
    while (size > 0) {
        const size_t chunk =
            std::min(size, size_t(kLineSize - lineOffset(addr)));
        Access a;
        a.core = core_;
        a.addr = addr;
        a.size = uint32_t(chunk);
        a.op = MemOp::Store;
        a.handler = true;
        const AccessResult r = ms_.access(a);
        COMMTM_CHECK(!r.mustAbort(),
                     "handler write of 0x%llx aborted; handlers are "
                     "non-speculative and must always win",
                     (unsigned long long)addr);
        lat_ += r.latency;
        ms_.memory_.write(addr, from, chunk);
        from += chunk;
        addr += chunk;
        size -= chunk;
    }
}

// ---------------------------------------------------------------------
// Lookup helpers
// ---------------------------------------------------------------------

PrivLine *
MemorySystem::findL1(CoreId core, Addr line)
{
    return cores_[core]->l1.lookup(line);
}

const PrivLine *
MemorySystem::findL1(CoreId core, Addr line) const
{
    return cores_[core]->l1.lookup(line);
}

PrivLine *
MemorySystem::findL2(CoreId core, Addr line)
{
    return cores_[core]->l2.lookup(line);
}

bool
MemorySystem::coreHasU(CoreId core, Addr line) const
{
    return cores_[core]->uCopies.contains(line);
}

LineData &
MemorySystem::uCopy(CoreId core, Addr line)
{
    // Deliberately a plain reference (not a sanitizer handle): the
    // contract is "must exist", callers use it immediately, and the
    // functional accessors sit on the hot path.
    const auto copy = cores_[core]->uCopies.find(line);
    assert(copy);
    return *copy;
}

const LineData &
MemorySystem::uCopy(CoreId core, Addr line) const
{
    const auto copy = cores_[core]->uCopies.find(line);
    assert(copy);
    return *copy;
}

void
MemorySystem::clearSpec(CoreId core, Addr line)
{
    if (PrivLine *e1 = findL1(core, line)) {
        e1->specRead = false;
        e1->specWrite = false;
        e1->noted = 0;
    }
}

PrivState
MemorySystem::privState(CoreId core, Addr line) const
{
    if (const PrivLine *e1 = findL1(core, line))
        return e1->state;
    if (const PrivLine *e2 = cores_[core]->l2.lookup(line))
        return e2->state;
    return PrivState::I;
}

DirState
MemorySystem::dirState(Addr line) const
{
    const L3Line *e = l3_.lookup(line);
    return e ? e->dir : DirState::NonCached;
}

Label
MemorySystem::dirLabel(Addr line) const
{
    const L3Line *e = l3_.lookup(line);
    return e ? e->label : kNoLabel;
}

uint32_t
MemorySystem::sharerCount(Addr line) const
{
    const L3Line *e = l3_.lookup(line);
    return e ? e->sharers.count() : 0;
}

namespace {

/** Functional-only handler context: reads/writes go straight to the
 *  backing store with no timing or coherence effects. Used only for
 *  debug/verification reductions that must not perturb the simulation. */
class UntimedHandlerCtx : public HandlerContext
{
  public:
    explicit UntimedHandlerCtx(const SimMemory &mem)
        : mem_(const_cast<SimMemory &>(mem))
    {
    }
    void
    rawRead(Addr addr, void *out, size_t size) override
    {
        mem_.read(addr, out, size);
    }
    void
    rawWrite(Addr, const void *, size_t) override
    {
        assert(false && "debug reductions must not write memory");
    }
    void compute(uint64_t) override {}

  private:
    SimMemory &mem_;
};

} // namespace

LineData
MemorySystem::debugReducedValue(Addr line) const
{
    const L3Line *e = l3_.lookup(line);
    if (!e || e->dir != DirState::U)
        return memory_.readLine(line);
    const LabelInfo &li = labels_.get(e->label);
    UntimedHandlerCtx ctx(memory_);
    LineData acc{};
    bool have = false;
    e->sharers.forEach([&](CoreId s) {
        const auto copy = cores_[s]->uCopies.find(line);
        assert(copy);
        if (!have) {
            acc = *copy;
            have = true;
        } else {
            LineData local = acc;
            li.reduce(ctx, local, *copy);
            acc = local;
        }
    });
    assert(have);
    return acc;
}

std::vector<LineData>
MemorySystem::debugUCopies(Addr line) const
{
    std::vector<LineData> copies;
    const L3Line *e = l3_.lookup(line);
    if (!e || e->dir != DirState::U)
        return copies;
    e->sharers.forEach([&](CoreId s) {
        const auto copy = cores_[s]->uCopies.find(line);
        assert(copy);
        copies.push_back(*copy);
    });
    return copies;
}

// ---------------------------------------------------------------------
// Conflict detection and resolution
// ---------------------------------------------------------------------

AbortCause
MemorySystem::classifyConflict(InvalKind kind, const PrivLine &victim) const
{
    if (victim.state == PrivState::U) {
        return kind == InvalKind::ForSplit ? AbortCause::GatherAfterLabeled
                                           : AbortCause::LabeledConflict;
    }
    switch (kind) {
      case InvalKind::ForRead:
        return AbortCause::ReadAfterWrite;
      case InvalKind::ForWrite:
        return victim.specWrite ? AbortCause::WriteAfterWrite
                                : AbortCause::WriteAfterRead;
      case InvalKind::ForLabeled:
      case InvalKind::ForReduction:
        return AbortCause::LabeledConflict;
      case InvalKind::ForSplit:
        return AbortCause::GatherAfterLabeled;
    }
    return AbortCause::LabeledConflict;
}

bool
MemorySystem::battle(const Access &req, CoreId victim, Addr line,
                     InvalKind kind, AccessResult &res)
{
    if (victim == req.core)
        return true;
    // Lazy (commit-time) detection: a speculative request never flags
    // conventional read/write conflicts; the committing transaction
    // arbitrates. U-state interactions — reductions, splits, AND GETU
    // invalidations of conventional sharers (ForLabeled) — stay
    // immediate (docs/ARCHITECTURE.md Sec. 6). Deferring ForLabeled
    // let a line re-enter U between a transaction's conventional
    // full-value read and its labeled write of the derived value; the
    // write then committed into a fresh identity copy as a commutative
    // partial on top of the still-circulating old value, minting
    // tokens (caught by the GridClaim fuzz wall).
    if (cfg_.conflictDetection == ConflictDetection::Lazy && req.isTx &&
        (kind == InvalKind::ForRead || kind == InvalKind::ForWrite)) {
        return true;
    }
    PrivLine *e1 = findL1(victim, line);
    if (!e1 || !e1->spec() || !htm_->inTx(victim))
        return true; // no speculative holder: plain coherence action
    // A downgrade for a read only conflicts with a speculative writer.
    if (kind == InvalKind::ForRead && !e1->specWrite)
        return true;

    const AbortCause cause = classifyConflict(kind, *e1);
    const bool requester_wins =
        cfg_.conflictPolicy == ConflictPolicy::RequesterWins ||
        !req.isTx || // non-speculative requests cannot be NACKed
        req.ts < htm_->txTs(victim); // the earlier transaction wins

    if (requester_wins) {
        htm_->remoteAbort(victim, cause);
        return true;
    }
    stats_.nacks++;
    res.nackAbort = true;
    res.cause = cause;
    return false;
}

// ---------------------------------------------------------------------
// Private-hierarchy fills and evictions
// ---------------------------------------------------------------------

void
MemorySystem::markSpec(const Access &req, Addr line, PrivLine *e1)
{
    if (e1)
        assert(e1 == findL1(req.core, line));
    else
        e1 = findL1(req.core, line);
    COMMTM_CHECK(e1,
                 "speculative access must leave the line in the L1: "
                 "core=%u op=%d label=%d line=0x%llx l2=%s dir=%s "
                 "sharers=%u hasU=%d",
                 req.core, int(req.op), int(req.label),
                 (unsigned long long)line,
                 privStateName(privState(req.core, line)),
                 dirStateName(dirState(line)), sharerCount(line),
                 int(coreHasU(req.core, line)));
    // A labeled op is only a *commutative* access while the line is in
    // U: satisfied by an exclusively-held (E/M) line it executes on
    // the fully-reduced value (Fig. 3) — the conditionally-commutative
    // fallback pattern (conventional read, then labeled write of the
    // derived value) — so for commit-time arbitration it must count as
    // a conventional read/write. Classifying it as Labeled let two
    // lazy-mode transactions both claim the last token of a bounded
    // cell: neither joined the write set, so lazyArbitrate's
    // "commutative users don't conflict" rule never aborted the stale
    // reader (caught by the GridClaim fuzz wall).
    const bool labeled = isLabeled(req.op) && e1->state == PrivState::U;
    const bool is_load = !req.lazyWrite && !isStore(req.op);
    if (is_load)
        e1->specRead = true;
    else
        e1->specWrite = true;
    // Note each KIND once per line (one noted bit per kind): gating
    // on specRead/specWrite alone dropped the conventional read of a
    // line whose labeled access came first — so a lazy-mode
    // transaction's stale full-value read was invisible to
    // commit-time arbitration (GridClaim fuzz wall).
    const SpecKind kind = labeled ? SpecKind::Labeled
                          : is_load ? SpecKind::Read
                                    : SpecKind::Write;
    if (!(e1->noted & specBit(kind))) {
        e1->noted |= specBit(kind);
        htm_->noteSpecLine(req.core, line, kind);
    }
}

bool
MemorySystem::satisfiesLocally(const PrivLine &entry, MemOp op,
                               Label label) const
{
    switch (entry.state) {
      case PrivState::I:
        return false;
      case PrivState::S:
        return op == MemOp::Load;
      case PrivState::E:
      case PrivState::M:
        // Exclusive states satisfy all requests, labeled or not (Fig. 3).
        // A gather on an exclusively-held line is trivially satisfied:
        // the whole value is local, so there is nothing to gather.
        return true;
      case PrivState::U:
        return (op == MemOp::LabeledLoad || op == MemOp::LabeledStore) &&
               entry.label == label;
    }
    return false;
}

namespace {

bool
isULine(const PrivLine &entry)
{
    return entry.state == PrivState::U;
}

} // namespace

void
MemorySystem::dropPriv(CoreId core, Addr line)
{
    // The inclusive L2 holds every private copy.
    const PrivLine *e2 = findL2(core, line);
    if (e2 && e2->state == PrivState::M)
        stats_.writebacks++;
    cores_[core]->l1.erase(line);
    cores_[core]->l2.erase(line);
}

void
MemorySystem::removeUSharer(L3Line *e, CoreId core)
{
    e->sharers.clear(core);
    dropPriv(core, e->line);
    cores_[core]->uCopies.erase(e->line);
}

bool
MemorySystem::lossAborts(CoreId core, const PrivLine &l1) const
{
    // Losing speculatively-accessed data from the L1 aborts the
    // transaction (Sec. III-B1 capacity rule), whichever level evicts
    // it. Lazy mode tracks the conventional read/write sets in the
    // transaction's footprint, so residency is not required for those
    // — but U-state (labeled) conflicts are detected eagerly in BOTH
    // modes (docs/ARCHITECTURE.md Sec. 6), and that detection lives in
    // the L1 entry's spec bits: evicting a spec U line would let a
    // reduction merge this transaction's copy away without a battle,
    // and the commit would then re-apply its buffered absolute bytes
    // onto a fresh identity copy, minting value out of thin air
    // (caught by the GridClaim fuzz wall under lazy + tiny caches).
    return l1.spec() && htm_->inTx(core) &&
           (cfg_.conflictDetection == ConflictDetection::Eager ||
            l1.state == PrivState::U);
}

void
MemorySystem::onEvictL1(CoreId core, const PrivLine &victim)
{
    if (lossAborts(core, victim))
        htm_->remoteAbort(core, AbortCause::Capacity);
    // The L2 keeps the line, and a U line its U copy.
}

void
MemorySystem::onEvictL2(CoreId core, PrivLine &victim, Cycle &lat)
{
    // Back-invalidate the L1 (inclusive hierarchy).
    if (PrivLine *e1 = findL1(core, victim.line)) {
        if (lossAborts(core, *e1))
            htm_->remoteAbort(core, AbortCause::Capacity);
        cores_[core]->l1.erase(victim.line);
    }
    if (victim.state == PrivState::U) {
        uEvict(core, victim.line, lat);
        return;
    }
    if (L3Line *e = l3_.lookup(victim.line)) {
        if (e->sharers.test(core)) {
            e->sharers.clear(core);
            if (victim.state == PrivState::M)
                stats_.writebacks++;
            if (!e->sharers.any() && e->dir != DirState::U)
                e->dir = DirState::NonCached;
        }
    }
}

void
MemorySystem::uEvict(CoreId core, Addr line, Cycle &lat)
{
    // Guards: a recursive handler access may already have reduced this
    // core's copy away (see docs/ARCHITECTURE.md Sec. 2.3); then there
    // is nothing left to do.
    auto &copies = cores_[core]->uCopies;
    const auto found = copies.find(line);
    if (!found)
        return;
    L3Line *e = l3_.lookup(line);
    COMMTM_CHECK(e, "U eviction of line 0x%llx with no L3 entry",
                 (unsigned long long)line);
    COMMTM_CHECK(e->dir == DirState::U && e->sharers.test(core),
                 "U eviction of line 0x%llx by core %u, but the "
                 "directory has it %s with sharer bit %d",
                 (unsigned long long)line, core, dirStateName(e->dir),
                 int(e->sharers.test(core)));
    const LineData copy = *found;
    copies.erase(line);
    e->sharers.clear(core);

    if (!e->sharers.any()) {
        // Sole sharer: written back like an M line (Sec. III-B5).
        memory_.writeLine(line, copy);
        e->dir = DirState::NonCached;
        e->label = kNoLabel;
        stats_.uWritebacks++;
        return;
    }
    // Forward to a random sharer, which reduces it with its local line.
    const uint32_t pick = uint32_t(rng_.below(e->sharers.count()));
    CoreId target = kNoCore;
    uint32_t idx = 0;
    e->sharers.forEach([&](CoreId s) {
        if (idx++ == pick)
            target = s;
    });
    assert(target != kNoCore);
    // If the chosen core's transaction touches this line, it aborts.
    if (PrivLine *te = findL1(target, line)) {
        if (te->spec() && htm_->inTx(target))
            htm_->remoteAbort(target, AbortCause::UEviction);
    }
    HandlerCtx hctx(*this, target, lat);
    // Reduce into a local copy, not a live map reference: the handler
    // may recurse into access() and reshuffle the target's uCopies
    // (flat-map growth/backshift invalidates references).
    LineData merged = cores_[target]->uCopies[line];
    labels_.get(e->label).reduce(hctx, merged, copy);
    cores_[target]->uCopies[line] = merged;
    lat += cfg_.reductionFixedCost + noc_.coreToCore(core, target);
    stats_.uForwards++;
}

void
MemorySystem::reserveWay(CoreId core, Addr line, bool l2, Cycle &lat)
{
    CacheArray<PrivLine> &arr = l2 ? cores_[core]->l2 : cores_[core]->l1;
    while (arr.countInSet(line, isULine) >= arr.ways() - 1) {
        const PrivLine *v = arr.findLruWhere(line, isULine);
        assert(v);
        PrivLine victim = *v;
        arr.erase(victim.line);
        if (l2)
            onEvictL2(core, victim, lat);
        else
            onEvictL1(core, victim);
    }
}

void
MemorySystem::setPriv(CoreId core, Addr line, PrivState state, Label label,
                      bool handler, Cycle &lat)
{
    assert(!(handler && state == PrivState::U));
    PerCore &pc = *cores_[core];
    const bool filling_u = state == PrivState::U;

    const auto may_evict = [handler](const PrivLine &v) {
        return !(handler && v.state == PrivState::U);
    };

    // L2 first (inclusive parent), then L1. A U fill first makes room
    // under the reserved-way rule (Sec. III-B4).
    bool evicted2 = false;
    PrivLine victim2;
    PrivLine *e2 = pc.l2.lookup(line);
    if (!e2) {
        if (filling_u)
            reserveWay(core, line, true, lat);
        auto r = pc.l2.insert(line, may_evict);
        e2 = r.entry;
        evicted2 = r.evicted;
        victim2 = r.victim;
    } else if (filling_u && e2->state != PrivState::U) {
        // In-place upgrade of a conventional line to U counts against
        // the reserved way exactly like a U fill; without this a hit
        // path could fill every way of the set with U lines and a
        // later handler fill would find no eligible victim (caught by
        // the invariant checker's reserved-way sweep under fuzz).
        reserveWay(core, line, true, lat);
        e2 = pc.l2.lookup(line);
    }
    e2->state = state;
    e2->label = label;
    pc.l2.touch(e2);

    bool evicted1 = false;
    PrivLine victim1;
    PrivLine *e1 = pc.l1.lookup(line);
    if (!e1) {
        if (filling_u)
            reserveWay(core, line, false, lat);
        auto r = pc.l1.insert(line, may_evict);
        e1 = r.entry;
        evicted1 = r.evicted;
        victim1 = r.victim;
    } else if (filling_u && e1->state != PrivState::U) {
        reserveWay(core, line, false, lat); // same rule as the L2
        e1 = pc.l1.lookup(line);
    }
    e1->state = state;
    e1->label = label;
    pc.l1.touch(e1);

    // Deferred eviction side effects: run after the fills so handler
    // recursion observes a consistent hierarchy.
    if (evicted1)
        onEvictL1(core, victim1);
    if (evicted2)
        onEvictL2(core, victim2, lat);
}

PrivState
MemorySystem::setPrivState(CoreId core, Addr line, PrivState state,
                           Label label)
{
    if (PrivLine *e1 = findL1(core, line)) {
        e1->state = state;
        e1->label = label;
    }
    PrivLine *e2 = findL2(core, line);
    if (!e2)
        return PrivState::I;
    const PrivState prior = e2->state;
    e2->state = state;
    e2->label = label;
    return prior;
}

void
MemorySystem::reserveWayForU(CoreId core, Addr line, Cycle &lat)
{
    // An in-place downgrade of a conventional copy to U (e.g. the
    // exclusive owner in GETU Case 5) bypasses setPriv's fill path,
    // but counts against the reserved way all the same: without this
    // the set could end up all-U and a later reduction-handler fill
    // would find no eligible victim. L2 first: back-invalidation of
    // an evicted L2 U line frees its L1 way too.
    const PrivLine *e2 = findL2(core, line);
    if (e2 && e2->state != PrivState::U)
        reserveWay(core, line, true, lat);
    const PrivLine *e1 = findL1(core, line);
    if (e1 && e1->state != PrivState::U)
        reserveWay(core, line, false, lat);
}

// ---------------------------------------------------------------------
// L3 / directory
// ---------------------------------------------------------------------

void
MemorySystem::onEvictL3(L3Line &victim, Cycle &lat)
{
    const Addr vline = victim.line;
    if (victim.dir == DirState::U) {
        // Inclusive L3: evicting a U line reduces it at one core and
        // aborts every transaction that accessed it (Sec. III-B5).
        const LabelInfo &li = labels_.get(victim.label);
        LineData acc{};
        bool have = false;
        const CoreId host = victim.sharers.first();
        HandlerCtx hctx(*this, host, lat);
        victim.sharers.forEach([&](CoreId s) {
            if (PrivLine *e1 = findL1(s, vline)) {
                if (e1->spec() && htm_->inTx(s))
                    htm_->remoteAbort(s, AbortCause::UEviction);
            }
            const auto found = cores_[s]->uCopies.find(vline);
            if (!found)
                return;
            // Copy the donor value before running the reduction
            // handler: recursion may reshuffle s's uCopies.
            const LineData donor = *found;
            cores_[s]->uCopies.erase(vline);
            dropPriv(s, vline);
            if (!have) {
                acc = donor;
                have = true;
            } else {
                li.reduce(hctx, acc, donor);
                lat += cfg_.reductionFixedCost;
            }
        });
        if (have)
            memory_.writeLine(vline, acc);
        stats_.reductions++;
        stats_.uWritebacks++;
        return;
    }
    // Normal line: back-invalidate all private copies.
    victim.sharers.forEach([&](CoreId s) {
        if (const PrivLine *e1 = findL1(s, vline)) {
            if (lossAborts(s, *e1))
                htm_->remoteAbort(s, AbortCause::Capacity);
        }
        dropPriv(s, vline);
    });
}

L3Line *
MemorySystem::getL3(const Access &req, Addr line, Cycle &lat)
{
    if (L3Line *e = l3_.lookup(line)) {
        l3_.touch(e);
        stats_.l3Hits++;
        return e;
    }
    stats_.l3Misses++;
    lat += cfg_.memLatency;

    const auto non_cached = [](const L3Line &v) {
        return v.dir == DirState::NonCached;
    };
    CacheArray<L3Line>::InsertResult r;
    if (l3_.countInSet(line, non_cached) > 0) {
        r = l3_.insert(line, non_cached);
    } else if (req.handler) {
        // Handlers must never trigger a reduction (deadlock avoidance):
        // they cannot evict directory-U lines. With 16 ways this always
        // leaves an eligible victim in practice; asserted in insert().
        r = l3_.insert(line,
                       [](const L3Line &v) { return v.dir != DirState::U; });
    } else {
        r = l3_.insert(line);
    }
    if (r.evicted)
        onEvictL3(r.victim, lat);
    // Handler recursion inside onEvictL3 may have reshuffled the set;
    // re-find our entry.
    L3Line *e = l3_.lookup(line);
    COMMTM_CHECK(e, "line 0x%llx lost its L3 entry during the fill's "
                    "own eviction",
                 (unsigned long long)line);
    return e;
}

// ---------------------------------------------------------------------
// Directory-side request handling
// ---------------------------------------------------------------------

void
MemorySystem::grantSole(const Access &req, L3Line *e, PrivState state,
                        Label label, AccessResult &res)
{
    e->dir = state == PrivState::U ? DirState::U : DirState::M;
    e->label = label;
    e->sharers.resetAll();
    e->sharers.set(req.core);
    setPriv(req.core, e->line, state, label, req.handler, res.latency);
}

bool
MemorySystem::invalidateSharers(const Access &req, L3Line *e,
                                InvalKind kind, AccessResult &res)
{
    const Addr line = e->line;
    const CoreId c = req.core;
    bool nacked = false;
    Cycle max_leg = 0;
    // Stack snapshot: battle() may mutate the sharer set, and a heap
    // vector per invalidation shows up in host time.
    const SharerList sharers(e->sharers, c);
    for (const CoreId s : sharers) {
        if (!battle(req, s, line, kind, res)) {
            nacked = true;
            continue;
        }
        dropPriv(s, line);
        e->sharers.clear(s);
        stats_.invalidations++;
        max_leg = std::max(max_leg, noc_.coreToCore(s, c));
    }
    res.latency += max_leg;
    return !nacked;
}

void
MemorySystem::handleGETS(const Access &req, L3Line *e, AccessResult &res)
{
    const Addr line = e->line;
    const CoreId c = req.core;
    switch (e->dir) {
      case DirState::NonCached:
        // MESI: the first reader gets the line exclusive-clean.
        grantSole(req, e, PrivState::E, kNoLabel, res);
        break;
      case DirState::S:
        e->sharers.set(c);
        setPriv(c, line, PrivState::S, kNoLabel, req.handler, res.latency);
        break;
      case DirState::M: {
        const CoreId owner = e->sharers.first();
        assert(owner != c && "exclusive holder would have hit locally");
        if (!battle(req, owner, line, InvalKind::ForRead, res))
            return;
        // Downgrade the owner to S; it forwards the data, writing an
        // M copy back on the way.
        if (setPrivState(owner, line, PrivState::S, kNoLabel) ==
            PrivState::M)
            stats_.writebacks++;
        stats_.downgrades++;
        res.latency += noc_.coreToCore(owner, c);
        e->dir = DirState::S;
        e->sharers.set(c);
        setPriv(c, line, PrivState::S, kNoLabel, req.handler, res.latency);
        break;
      }
      case DirState::U:
        assert(!req.handler && "handlers must not touch U lines");
        reduceLine(req, e, res, true, kNoLabel);
        break;
    }
}

void
MemorySystem::handleGETX(const Access &req, L3Line *e, AccessResult &res)
{
    const Addr line = e->line;
    const CoreId c = req.core;
    switch (e->dir) {
      case DirState::NonCached:
        grantSole(req, e, PrivState::M, kNoLabel, res);
        break;
      case DirState::S:
        if (!invalidateSharers(req, e, InvalKind::ForWrite, res))
            return;
        grantSole(req, e, PrivState::M, kNoLabel, res);
        break;
      case DirState::M: {
        const CoreId owner = e->sharers.first();
        assert(owner != c && "exclusive holder would have hit locally");
        if (!battle(req, owner, line, InvalKind::ForWrite, res))
            return;
        dropPriv(owner, line);
        stats_.invalidations++;
        res.latency += noc_.coreToCore(owner, c);
        grantSole(req, e, PrivState::M, kNoLabel, res);
        break;
      }
      case DirState::U:
        assert(!req.handler && "handlers must not touch U lines");
        reduceLine(req, e, res, true, kNoLabel);
        break;
    }
}

void
MemorySystem::handleGETU(const Access &req, L3Line *e, AccessResult &res)
{
    const Addr line = e->line;
    const CoreId c = req.core;
    const Label l = req.label;
    PerCore &pc = *cores_[c];

    switch (e->dir) {
      case DirState::NonCached:
        // Case 1: no other private cache has the line; the directory
        // serves the data, which the requester absorbs into its U copy.
        pc.uCopies[line] = memory_.readLine(line);
        grantSole(req, e, PrivState::U, l, res);
        break;
      case DirState::S:
        // Case 2: invalidate read-only sharers, then serve the data.
        if (!invalidateSharers(req, e, InvalKind::ForLabeled, res))
            return;
        pc.uCopies[line] = memory_.readLine(line);
        grantSole(req, e, PrivState::U, l, res);
        break;
      case DirState::M: {
        // Case 5: downgrade the exclusive owner to U; it retains the
        // data, the requester initializes to the identity (Fig. 4b).
        const CoreId owner = e->sharers.first();
        assert(owner != c && "exclusive holder would have hit locally");
        if (!battle(req, owner, line, InvalKind::ForLabeled, res))
            return;
        // The in-place M->U downgrade below counts against the
        // owner's reserved way like any U fill. The eviction may run
        // a reduction handler that recurses into access() and
        // reshuffles the L3 flat map, so re-find our entry after.
        reserveWayForU(owner, line, res.latency);
        e = l3_.lookup(line);
        COMMTM_CHECK(e, "L3 entry for line 0x%llx vanished during "
                        "reserved-way eviction",
                     (unsigned long long)line);
        // The owner's data stays in its U copy: no writeback.
        cores_[owner]->uCopies[line] = memory_.readLine(line);
        setPrivState(owner, line, PrivState::U, l);
        stats_.downgrades++;
        res.latency += noc_.coreToBank(owner, cfg_.lineBank(line));
        pc.uCopies[line] = labels_.get(l).identity;
        e->dir = DirState::U;
        e->label = l;
        e->sharers.set(c);
        setPriv(c, line, PrivState::U, l, false, res.latency);
        break;
      }
      case DirState::U:
        if (e->label == l) {
            // Case 4: same label; grant U without serving data.
            assert(!e->sharers.test(c) && "sharer would have hit locally");
            pc.uCopies[line] = labels_.get(l).identity;
            e->sharers.set(c);
            setPriv(c, line, PrivState::U, l, false, res.latency);
        } else {
            // Case 3: different label; reduce, then re-enter U relabeled.
            reduceLine(req, e, res, false, l);
        }
        break;
    }
}

void
MemorySystem::reduceLine(const Access &req, L3Line *e, AccessResult &res,
                         bool to_m, Label new_label)
{
    assert(!req.handler);
    const Addr line = e->line;
    const CoreId c = req.core;
    const Label old_label = e->label;
    const LabelInfo &li = labels_.get(old_label);
    PerCore &pc = *cores_[c];

    // Unlabeled access to our own speculatively-modified labeled data
    // while others share it: abort and retry with labeled operations
    // demoted to conventional ones (Sec. III-B4).
    if (to_m && e->sharers.test(c) && e->sharers.count() > 1 && req.isTx &&
        htm_->specModified(c, line)) {
        res.selfDemote = true;
        res.cause = AbortCause::SelfDemotion;
        return;
    }

    LineData acc{};
    bool have = false;
    if (e->sharers.test(c)) {
        acc = pc.uCopies[line];
        have = true;
    }

    bool nacked = false;
    Cycle max_leg = 0;
    HandlerCtx hctx(*this, c, res.latency);
    const SharerList others(e->sharers, c);
    for (const CoreId s : others) {
        if (!battle(req, s, line, InvalKind::ForReduction, res)) {
            nacked = true;
            continue;
        }
        const auto fwd_copy = cores_[s]->uCopies.find(line);
        COMMTM_CHECK(fwd_copy,
                     "directory-U sharer %u of line 0x%llx holds no U "
                     "copy to forward",
                     s, (unsigned long long)line);
        const LineData fwd = *fwd_copy;
        if (!have) {
            // The requester transitions to U on the first forwarded line.
            acc = fwd;
            have = true;
        } else {
            li.reduce(hctx, acc, fwd);
            res.latency += cfg_.reductionFixedCost;
            stats_.reductionLinesMerged++;
        }
        max_leg = std::max(max_leg, noc_.coreToCore(s, c));
        removeUSharer(e, s);
        stats_.invalidations++;
    }
    res.latency += max_leg;
    stats_.reductions++;

    if (nacked) {
        // NACKed reduction (Sec. III-B4): the requester keeps what it
        // merged, in U with the old label, and aborts afterwards.
        if (have) {
            pc.uCopies[line] = acc;
            e->sharers.set(c);
            setPriv(c, line, PrivState::U, old_label, false, res.latency);
        }
        return;
    }

    COMMTM_CHECK(have,
                 "reduction of line 0x%llx found no sharer copies; a "
                 "directory-U line must have at least one",
                 (unsigned long long)line);
    if (to_m) {
        pc.uCopies.erase(line);
        memory_.writeLine(line, acc);
        grantSole(req, e, PrivState::M, kNoLabel, res);
    } else {
        pc.uCopies[line] = acc;
        grantSole(req, e, PrivState::U, new_label, res);
    }
}

void
MemorySystem::runGather(const Access &req, L3Line *e, AccessResult &res)
{
    const Addr line = e->line;
    const CoreId c = req.core;
    // The requester holds the line in U by now: access() re-acquires
    // it with the GETU flow before this body runs (Sec. IV).
    assert(e->dir == DirState::U && e->sharers.test(c));
    const LabelInfo &li = labels_.get(req.label);
    assert(li.split && "gather on a label without a splitter");
    stats_.gathers++;

    // Refresh the requester's private entries up front: under cache
    // pressure the line may have fallen back to L2-only, and every exit
    // path below must leave it in the L1 for speculative tracking.
    setPriv(c, line, PrivState::U, req.label, false, res.latency);

    const uint32_t num_sharers = e->sharers.count();
    if (num_sharers <= 1)
        return; // nothing to gather

    PerCore &pc = *cores_[c];
    HandlerCtx hctx(*this, c, res.latency);
    Cycle max_leg = 0;
    SharerList others(e->sharers, c);
    // Subset gathers (paper future work, Sec. IV): query only the N
    // sharers nearest the requester on the mesh.
    if (cfg_.gatherFanoutLimit != 0 &&
        others.size() > cfg_.gatherFanoutLimit) {
        std::sort(others.begin(), others.end(),
                  [&](CoreId a, CoreId b) {
                      const Cycle la = noc_.coreToCore(a, c);
                      const Cycle lb = noc_.coreToCore(b, c);
                      return la != lb ? la < lb : a < b;
                  });
        others.truncate(cfg_.gatherFanoutLimit);
    }
    for (const CoreId s : others) {
        // Sharers with nothing to donate are skipped entirely: a no-op
        // split leaves their line unchanged, so it cannot invalidate
        // anything a transaction observed — no conflict, no splitter
        // run (label.h, SplitProbeFn).
        if (li.splitProbe &&
            !li.splitProbe(cores_[s]->uCopies[line], num_sharers)) {
            continue;
        }
        if (!battle(req, s, line, InvalKind::ForSplit, res))
            continue; // NACKed; requester aborts after merging the rest
        // Run the splitter and reduction on local copies: the handler
        // may recurse into access() and reshuffle either core's
        // uCopies, invalidating flat-map references.
        LineData donor = cores_[s]->uCopies[line];
        LineData out = li.identity;
        li.split(hctx, donor, out, num_sharers);
        cores_[s]->uCopies[line] = donor;
        stats_.splits++;
        LineData mine = pc.uCopies[line];
        li.reduce(hctx, mine, out);
        pc.uCopies[line] = mine;
        res.latency += cfg_.reductionFixedCost;
        max_leg = std::max(max_leg, 2 * noc_.coreToCore(s, c));
    }
    res.latency += max_leg;
    // Refresh the requester's private entries (it may only hold the line
    // in its L2 by now); speculative bits are preserved.
    setPriv(c, line, PrivState::U, req.label, false, res.latency);
}

// ---------------------------------------------------------------------
// Top-level access
// ---------------------------------------------------------------------

AccessResult
MemorySystem::access(const Access &req)
{
    const Addr line = lineAddr(req.addr);
    assert(lineOffset(req.addr) + req.size <= kLineSize &&
           "accesses must not straddle cache lines");
    assert(!(req.handler && isLabeled(req.op)));

    // Reduction/split handlers re-enter access() for their own reads
    // and writes. Handlers cannot touch U lines (asserted in the
    // directory handlers) nor evict them (reserved-way rule + the
    // getL3 handler predicate), so a handler access never runs another
    // handler: this re-entry is the memory system's only recursion,
    // bounded at depth one regardless of gather fanout or sharer
    // count.
    struct HandlerDepthGuard {
        uint32_t &depth;
        const bool active;
        ~HandlerDepthGuard()
        {
            if (active)
                depth--;
        }
    } handler_guard{handlerDepth_, req.handler};
    if (req.handler) {
        handlerDepth_++;
        COMMTM_CHECK(handlerDepth_ == 1,
                     "handler accesses must not nest (depth=%u)",
                     handlerDepth_);
    }

    AccessResult res;
    res.latency = cfg_.l1Latency;
    PerCore &pc = *cores_[req.core];

    // L1.
    if (PrivLine *e1 = pc.l1.lookup(line)) {
        if (satisfiesLocally(*e1, req.op, req.label)) {
            pc.l1.touch(e1);
            if (isStore(req.op) && e1->state == PrivState::E)
                setPrivState(req.core, line, PrivState::M, kNoLabel);
            stats_.l1Hits++;
            if (req.isTx && !req.handler)
                markSpec(req, line, e1);
            return res;
        }
    }
    stats_.l1Misses++;
    res.latency += cfg_.l2Latency;

    // L2.
    if (PrivLine *e2 = pc.l2.lookup(line)) {
        if (satisfiesLocally(*e2, req.op, req.label)) {
            pc.l2.touch(e2);
            stats_.l2Hits++;
            PrivState state = e2->state;
            if (isStore(req.op) && state == PrivState::E)
                state = PrivState::M;
            setPriv(req.core, line, state, e2->label, req.handler,
                    res.latency);
            if (req.isTx && !req.handler)
                markSpec(req, line);
            return res;
        }
    }
    stats_.l2Misses++;

    // Directory (L3 bank).
    const uint32_t bank = cfg_.lineBank(line);
    res.latency +=
        2 * noc_.coreToBank(req.core, bank) + cfg_.l3BankLatency;
    const GetType get_type = isLabeled(req.op) ? GetType::GETU
                             : isStore(req.op) ? GetType::GETX
                                               : GetType::GETS;
    stats_.l3Gets[size_t(get_type)]++;

    L3Line *e = getL3(req, line, res.latency);
    switch (req.op) {
      case MemOp::Load:
        handleGETS(req, e, res);
        break;
      case MemOp::Store:
        handleGETX(req, e, res);
        break;
      case MemOp::LabeledLoad:
      case MemOp::LabeledStore:
        handleGETU(req, e, res);
        break;
      case MemOp::Gather:
        if (e->dir != DirState::U || e->label != req.label ||
            !e->sharers.test(req.core)) {
            // The requester lost U between its labeled access and the
            // gather: re-acquire it with the GETU flow first.
            handleGETU(req, e, res);
            if (res.mustAbort())
                break;
            // The GETU's fills and reductions may have run handlers
            // that reshuffled the L3 set; re-find our entry.
            e = l3_.lookup(line);
            COMMTM_CHECK(e, "line 0x%llx lost its L3 entry while "
                            "re-acquiring U for a gather",
                         (unsigned long long)line);
        }
        runGather(req, e, res);
        break;
    }

    if (req.isTx && !req.handler && !res.mustAbort())
        markSpec(req, line);

    // End-of-access sweep (MachineConfig::denseInvariants). Handler
    // re-entries are skipped: mid-reduction the machine is legitimately
    // transient (e.g. onEvictL3 reuses the L3 slot while the remaining
    // sharers still hold their copies), and only the end of a
    // top-level access is a consistent sync point.
    if (invariants_ && !req.handler)
        invariants_->check(InvariantChecker::SyncPoint::AccessEnd);
    return res;
}

// --- test-only fault injection ---------------------------------------
// Each hook corrupts exactly one field of the machine so the negative
// tests in tests/invariants_test.cc can prove the checker catches that
// violation class with the right diagnostic. Never called outside
// tests.

void
MemorySystem::testFlipDirState(Addr line, DirState to)
{
    L3Line *e = l3_.lookup(line);
    assert(e);
    e->dir = to;
}

void
MemorySystem::testFlipSharerBit(Addr line, CoreId core)
{
    L3Line *e = l3_.lookup(line);
    assert(e);
    if (e->sharers.test(core))
        e->sharers.clear(core);
    else
        e->sharers.set(core);
}

void
MemorySystem::testFlipPrivState(CoreId core, Addr line, PrivState to)
{
    if (PrivLine *e1 = findL1(core, line))
        e1->state = to;
    if (PrivLine *e2 = findL2(core, line))
        e2->state = to;
}

void
MemorySystem::testFlipL1State(CoreId core, Addr line, PrivState to)
{
    PrivLine *e1 = findL1(core, line);
    assert(e1);
    e1->state = to;
}

void
MemorySystem::testDropUCopy(CoreId core, Addr line)
{
    cores_[core]->uCopies.erase(line);
}

void
MemorySystem::testFlipNotedBit(CoreId core, Addr line)
{
    PrivLine *e1 = findL1(core, line);
    assert(e1);
    e1->noted ^= specBit(SpecKind::Read);
}

void
MemorySystem::testSetHandlerDepth(uint32_t depth)
{
    handlerDepth_ = depth;
}

} // namespace commtm
