/**
 * @file
 * The simulated memory system: private L1/L2s, shared banked L3 with an
 * in-cache directory, and the MESI coherence protocol extended with
 * CommTM's user-defined reducible (U) state (Sec. III), reductions
 * (Sec. III-B4), gather requests (Sec. IV), and the U-line eviction
 * rules (Sec. III-B5).
 *
 * The memory system handles coherence *state* and *timing*; functional
 * values live in SimMemory, per-core U-state copies (owned here), and
 * the HTM's transactional write buffers (owned by HtmManager).
 *
 * Key functional invariant (Sec. III-B3): while a line is in U, its
 * value equals the reduction of all private U copies; the first GETU
 * requester absorbs the memory value, later requesters initialize to
 * the label's identity.
 */

#ifndef COMMTM_MEM_COHERENCE_H
#define COMMTM_MEM_COHERENCE_H

#include <memory>
#include <vector>

#include "commtm/label.h"
#include "mem/cache_array.h"
#include "mem/line.h"
#include "mem/noc.h"
#include "sim/config.h"
#include "sim/flat_map.h"
#include "sim/memory.h"
#include "sim/rng.h"
#include "sim/stats.h"
#include "sim/types.h"

namespace commtm {

/** One memory request from a core (or its shadow thread). */
struct Access {
    CoreId core = 0;
    Addr addr = 0;
    uint32_t size = 8;
    MemOp op = MemOp::Load;
    Label label = kNoLabel;
    bool isTx = false;    //!< inside a transaction (speculative)
    Timestamp ts = 0;     //!< conflict-resolution timestamp when isTx
    bool handler = false; //!< issued by a reduction handler / splitter
    /** Lazy-mode transactional store: walks the protocol as a load
     *  (stores buffer silently until commit) but joins the write set. */
    bool lazyWrite = false;
};

/** Outcome of an access: latency plus any abort the requester owes. */
struct AccessResult {
    Cycle latency = 0;
    /** The request was NACKed (Fig. 6b): the requester must abort. */
    bool nackAbort = false;
    /** Unlabeled access to own speculatively-modified labeled data
     *  (Sec. III-B4): abort and retry with labeled ops demoted. */
    bool selfDemote = false;
    AbortCause cause = AbortCause::Explicit;

    bool mustAbort() const { return nackAbort || selfDemote; }
};

/**
 * The transaction manager (htm/htm.h). mem/ headers never include
 * htm/: the memory system holds a pointer to the forward-declared
 * class, and only coherence.cc sees its inline methods.
 */
class HtmManager;

/** Machine-wide protocol invariant checker (sim/invariants.h). */
class InvariantChecker;

/**
 * The whole simulated memory hierarchy and coherence protocol. All
 * methods execute atomically in simulated time (zsim-style simple-core
 * model; see docs/ARCHITECTURE.md Sec. 2.1).
 */
class MemorySystem
{
  public:
    MemorySystem(const MachineConfig &cfg, SimMemory &memory,
                 const LabelRegistry &labels, MachineStats &stats,
                 Rng &rng);

    /** Install the transaction manager (its constructor does this).
     *  Must precede the first transactional access. */
    void setHtmManager(HtmManager *htm) { htm_ = htm; }

    /**
     * Perform one access: coherence-state transitions, conflict
     * detection/resolution, reductions, and timing. The caller performs
     * the functional read/write afterwards (consulting uCopy() for
     * U-state lines).
     */
    AccessResult access(const Access &req);

    /** True iff @p core's private hierarchy holds @p line in U. */
    bool coreHasU(CoreId core, Addr line) const;

    /** @p core's non-speculative U copy of @p line; must exist. */
    LineData &uCopy(CoreId core, Addr line);
    const LineData &uCopy(CoreId core, Addr line) const;

    /** Clear the L1 speculative bits of (core, line); called on
     *  commit/abort for each line the transaction touched. */
    void clearSpec(CoreId core, Addr line);

    // --- introspection (tests, benches) ---
    PrivState privState(CoreId core, Addr line) const;
    DirState dirState(Addr line) const;
    Label dirLabel(Addr line) const;
    uint32_t sharerCount(Addr line) const;
    const MachineConfig &config() const { return cfg_; }

    /**
     * Functional-only (untimed, state-preserving) view of @p line's
     * committed value: the reduction of all U copies if the line is in
     * U, else the SimMemory contents. For verification; never changes
     * simulated state or time.
     */
    LineData debugReducedValue(Addr line) const;

    /** All per-core U copies of @p line (empty when not in U); untimed
     *  verification helper for indirection-based structures whose
     *  reductions write memory (lists, top-K sets). */
    std::vector<LineData> debugUCopies(Addr line) const;

    /** Install the invariant checker for end-of-access sweeps
     *  (MachineConfig::denseInvariants); nullptr disables them. */
    void setInvariantChecker(InvariantChecker *checker)
    {
        invariants_ = checker;
    }

    // --- test-only fault injection (tests/invariants_test.cc) ---
    // Directory/private-state flip hooks, the invariant-checker
    // counterpart of CommitLog::setTestOperandFlip: each corrupts ONE
    // field of the machine, modeling the protocol bug class the
    // checker must catch, and is never called outside tests.
    void testFlipDirState(Addr line, DirState to);
    void testFlipSharerBit(Addr line, CoreId core);
    void testFlipPrivState(CoreId core, Addr line, PrivState to);
    void testFlipL1State(CoreId core, Addr line, PrivState to);
    void testDropUCopy(CoreId core, Addr line);
    void testFlipNotedBit(CoreId core, Addr line);
    void testSetHandlerDepth(uint32_t depth);

  private:
    friend class InvariantChecker;
    /** Per-core private cache hierarchy. */
    struct PerCore {
        PerCore(uint32_t l1_lines, uint32_t l1_ways, uint32_t l2_lines,
                uint32_t l2_ways)
            : l1(l1_lines, l1_ways), l2(l2_lines, l2_ways)
        {
        }
        CacheArray<PrivLine> l1;
        CacheArray<PrivLine> l2;
        /** Non-speculative U-state copies (functional). Flat map: these
         *  lookups sit under every labeled access and every reduction. */
        FlatLineMap<LineData> uCopies;
    };

    /** Shadow-thread context for reduction handlers and splitters. */
    class HandlerCtx : public HandlerContext
    {
      public:
        HandlerCtx(MemorySystem &ms, CoreId core, Cycle &lat)
            : ms_(ms), core_(core), lat_(lat)
        {
        }
        void rawRead(Addr addr, void *out, size_t size) override;
        void rawWrite(Addr addr, const void *src, size_t size) override;
        void compute(uint64_t instrs) override { lat_ += instrs; }

      private:
        MemorySystem &ms_;
        CoreId core_;
        Cycle &lat_;
    };

    /** Which protocol action a conflict check is about. */
    enum class InvalKind : uint8_t {
        ForRead,      //!< GETS downgrade of an M owner
        ForWrite,     //!< GETX invalidation
        ForLabeled,   //!< GETU invalidation/downgrade
        ForReduction, //!< reduction-triggered invalidation of a U sharer
        ForSplit,     //!< gather-triggered split at a U sharer
    };

    // Directory-side request handlers. A GETS/GETX that finds the
    // line in dir-U, and a GETU with a different label (Case 3), call
    // reduceLine directly.
    void handleGETS(const Access &req, L3Line *e, AccessResult &res);
    void handleGETX(const Access &req, L3Line *e, AccessResult &res);
    void handleGETU(const Access &req, L3Line *e, AccessResult &res);
    /** Gather body proper (split/merge over the sharers); runs only
     *  once the requester holds the line in U (access() re-acquires
     *  it with handleGETU first if needed). */
    void runGather(const Access &req, L3Line *e, AccessResult &res);

    /** Make the requester @p e's one holder, in private @p state with
     *  @p label: dir-U with @p label for a U grant, dir-M otherwise. */
    void grantSole(const Access &req, L3Line *e, PrivState state,
                   Label label, AccessResult &res);

    /** Invalidate every dir-S sharer of @p e except the requester
     *  (GETX, and GETU Case 2), charging the slowest leg. Returns
     *  false if any sharer NACKed (res.nackAbort is then set). */
    bool invalidateSharers(const Access &req, L3Line *e, InvalKind kind,
                           AccessResult &res);

    /**
     * Reduce a dir-U line into @p req.core (Sec. III-B4, Fig. 7).
     * On success the requester ends in M (to_m) or in U with
     * @p new_label (GETU with a different label, case 3).
     * On a NACK the requester keeps/acquires U with the merged partial
     * value and must abort (res.nackAbort).
     */
    void reduceLine(const Access &req, L3Line *e, AccessResult &res,
                    bool to_m, Label new_label);

    /**
     * Conflict-check an invalidation/downgrade/split against @p victim
     * and resolve it (Sec. III-B3, Fig. 6). Returns true if the action
     * may proceed (no conflict, or the victim lost and was aborted);
     * false if the victim NACKed (sets res.nackAbort and res.cause).
     */
    bool battle(const Access &req, CoreId victim, Addr line,
                InvalKind kind, AccessResult &res);

    /** Classify the dependence for Fig. 18 given the victim's bits. */
    AbortCause classifyConflict(InvalKind kind, const PrivLine &victim)
        const;

    // Private-hierarchy management.
    PrivLine *findL1(CoreId core, Addr line);
    const PrivLine *findL1(CoreId core, Addr line) const;
    PrivLine *findL2(CoreId core, Addr line);
    /** Install/refresh (core, line) in both L1 and L2 with @p state. */
    void setPriv(CoreId core, Addr line, PrivState state, Label label,
                 bool handler, Cycle &lat);
    /** Change (core, line)'s state and label in place, at every level
     *  that holds it; returns the state it had. */
    PrivState setPrivState(CoreId core, Addr line, PrivState state,
                           Label label);
    /** Reserved-way rule (Sec. III-B4): evict LRU U lines from
     *  @p line's set in @p core's L2 (@p l2) or L1 until the set keeps
     *  a non-U way after @p line becomes U. */
    void reserveWay(CoreId core, Addr line, bool l2, Cycle &lat);
    /** Before converting @p line to U in place in @p core's caches,
        evict LRU U lines until each set keeps a non-U way
        (reserved-way rule, Sec. III-B4). */
    void reserveWayForU(CoreId core, Addr line, Cycle &lat);
    /** Drop (core, line) from L1+L2 (invalidations, reductions),
     *  counting the writeback of an M copy. */
    void dropPriv(CoreId core, Addr line);
    /** Mark speculative bits for a transactional access. Pass the
     *  line's L1 entry when the caller already holds it (the L1-hit
     *  fast path); markSpec re-finds it otherwise. */
    void markSpec(const Access &req, Addr line,
                  PrivLine *e1 = nullptr);

    // Evictions.
    /** Whether losing @p core's L1 entry @p l1 aborts its transaction
     *  (Sec. III-B1 capacity rule). */
    bool lossAborts(CoreId core, const PrivLine &l1) const;
    void onEvictL1(CoreId core, const PrivLine &victim);
    void onEvictL2(CoreId core, PrivLine &victim, Cycle &lat);
    void onEvictL3(L3Line &victim, Cycle &lat);
    /** Sec. III-B5: evict a U line from a private hierarchy. */
    void uEvict(CoreId core, Addr line, Cycle &lat);

    /** Lookup/fill the L3 entry (and directory state) for @p line. */
    L3Line *getL3(const Access &req, Addr line, Cycle &lat);

    /** True iff (state, label) satisfies @p op locally. */
    bool satisfiesLocally(const PrivLine &entry, MemOp op,
                          Label label) const;

    /** Remove @p core from @p line's U sharers, dropping its copy. */
    void removeUSharer(L3Line *e, CoreId core);

    const MachineConfig &cfg_;
    SimMemory &memory_;
    const LabelRegistry &labels_;
    MachineStats &stats_;
    Rng &rng_;
    NocModel noc_;
    HtmManager *htm_ = nullptr;

    std::vector<std::unique_ptr<PerCore>> cores_;
    CacheArray<L3Line> l3_;
    /** End-of-access sweep hook; installed only when
     *  MachineConfig::denseInvariants is set. */
    InvariantChecker *invariants_ = nullptr;

    /** Live handler-issued access() frames. Handlers cannot touch U
     *  lines nor evict them, so a handler access never runs another
     *  handler: the only recursion in the memory system is the
     *  handler -> access() re-entry, bounded at depth one (checked in
     *  access()). */
    uint32_t handlerDepth_ = 0;
};

} // namespace commtm

#endif // COMMTM_MEM_COHERENCE_H
