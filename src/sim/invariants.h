/**
 * @file
 * Machine-wide protocol invariant checker (docs/ARCHITECTURE.md
 * Sec. 10). When MachineConfig::checkInvariants is set (or the
 * COMMTM_CHECK_INVARIANTS environment variable forces it on), the
 * Machine sweeps the whole simulated chip — every directory entry,
 * every private tag array, every per-core U copy, and every
 * transaction's speculative sets — at configurable sync points and
 * verifies the protocol's correctness rules hold: directory sharer
 * masks match the private tags, M/E lines have exactly one owner, the
 * reserved-way rule (Sec. III-B4) holds in every set, U-line labels
 * and identity copies are consistent, the HTM signature sets contain
 * what the L1 noted bits claim (docs/ARCHITECTURE.md Sec. 6), and the
 * handler re-entry depth never exceeds one.
 *
 * Sweeps are strictly observation-only: they take const references,
 * never touch LRU state, and never charge simulated time, so the
 * exact-counter baseline wall (bench/baselines.json) runs
 * bit-identical with checking enabled. Violations print a structured
 * diagnostic (line address, both states, a sharer diff) and abort —
 * in Release builds too, unlike the assert()s this layer subsumes.
 */

#ifndef COMMTM_SIM_INVARIANTS_H
#define COMMTM_SIM_INVARIANTS_H

#include <cstdint>
#include <string>
#include <vector>

#include "sim/config.h"
#include "sim/types.h"

namespace commtm {

class MemorySystem;
class HtmManager;

/** Violation classes the sweep distinguishes (one per protocol rule). */
enum class InvariantKind : uint8_t {
    /** Directory sharer bit set, but the core's private hierarchy does
     *  not hold the line. */
    DirSharerNotPresent,
    /** A private copy exists but the directory does not track the core
     *  as a sharer (or has no entry at all — L3 inclusion). */
    PrivLineNotInDir,
    /** Dir-M line with zero or multiple sharers, an owner whose local
     *  state is not E/M, or an E/M copy coexisting with other copies. */
    ExclusivityViolation,
    /** Private state incompatible with the directory state (e.g. an S
     *  sharer holding the line in M). */
    DirStateMismatch,
    /** Dir state with an impossible sharer count (S/M/U with none,
     *  NonCached with some). */
    SharerCountMismatch,
    /** A cache set whose ways are all U lines (Sec. III-B4 reserved-
     *  way rule: one non-U way must survive for handler fills). */
    ReservedWayViolation,
    /** U-line label disagreement (dir vs. private copy), or a label on
     *  a non-U line. */
    ULabelMismatch,
    /** A directory-U sharer without a per-core U copy. */
    UCopyMissing,
    /** A per-core U copy whose line is not directory-U for that core. */
    UCopyOrphan,
    /** L1 entry missing from the (inclusive) L2, or disagreeing with
     *  it on state/label. */
    InclusionViolation,
    /** Speculative or noted bits on a core with no live transaction. */
    SpecBitsOutsideTx,
    /** An L1 noted kind missing from its line's footprint entry
     *  (docs/ARCHITECTURE.md Sec. 6), noted/spec bits that disagree
     *  with each other, or a release list (specLines) that does not
     *  hold each footprint line exactly once. */
    SignatureSetMismatch,
    /** A write-buffer line the footprint holds neither written nor
     *  labeled: its bytes would commit without ever being arbitrated. */
    WriteBufferNotInSet,
    /** Footprint, release list or write buffer still populated on a
     *  core with no active transaction (release leak). */
    SpecStateLeak,
    /** The handler -> access() re-entry exceeded depth one. */
    HandlerDepthExceeded,
};

const char *invariantKindName(InvariantKind kind);

/** One violation: the machine-readable fields tests match on, plus the
 *  full human-readable diagnostic. */
struct InvariantViolation {
    InvariantKind kind;
    Addr line = 0;        //!< line address (0 when not line-specific)
    CoreId core = kNoCore; //!< offending core (kNoCore when global)
    std::string message;  //!< structured diagnostic (states, sharer diff)
};

/**
 * The checker. Construction is cheap; each sweep() walks the machine
 * and reports every violation it finds. The production entry point
 * check() prints all diagnostics to stderr and aborts the process on
 * the first unclean sweep — it works in Release builds, which is the
 * point: the protocol rules it verifies were previously guarded only
 * by assert()s that vanish under NDEBUG.
 */
class InvariantChecker
{
  public:
    /** Where in the simulation a sweep was triggered from. */
    enum class SyncPoint : uint8_t {
        AccessEnd, //!< end of a top-level MemorySystem::access()
        Commit,    //!< after an HTM commit completed
        Abort,     //!< after an HTM abort attempt completed
        Periodic,  //!< every 100000 cycles (checkInvariants)
        Manual,    //!< explicit call (tests)
    };

    InvariantChecker(const MachineConfig &cfg, const MemorySystem &mem,
                     const HtmManager &htm);

    /** Full-machine sweep; appends violations to @p out and returns
     *  how many were found. Never mutates simulated state. */
    uint32_t sweep(std::vector<InvariantViolation> &out) const;

    /** Sweep; on any violation, print every diagnostic (prefixed with
     *  @p where) to stderr and abort. */
    void check(SyncPoint where);

    /** Sweeps run so far (all sync points). */
    uint64_t sweeps() const { return sweeps_; }

    static const char *syncPointName(SyncPoint where);

  private:
    void sweepDirectory(std::vector<InvariantViolation> &out) const;
    void sweepPrivate(std::vector<InvariantViolation> &out) const;
    void sweepHtm(std::vector<InvariantViolation> &out) const;

    const MachineConfig &cfg_;
    const MemorySystem &mem_;
    const HtmManager &htm_;
    mutable uint64_t sweeps_ = 0;
};

} // namespace commtm

#endif // COMMTM_SIM_INVARIANTS_H
