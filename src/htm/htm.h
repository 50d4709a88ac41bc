/**
 * @file
 * The eager-lazy HTM: eager conflict detection through the coherence
 * protocol, lazy (buffer-based) version management, timestamp-based
 * conflict resolution with NACKs, and randomized backoff (Sec. III-B).
 */

#ifndef COMMTM_HTM_HTM_H
#define COMMTM_HTM_HTM_H

#include <cassert>
#include <vector>

#include "htm/abort.h"
#include "htm/write_buffer.h"
#include "mem/coherence.h"
#include "sim/config.h"
#include "sim/flat_map.h"
#include "sim/rng.h"
#include "sim/stats.h"
#include "sim/types.h"

namespace commtm {

/**
 * Per-machine transaction manager. One transaction context per core
 * (the paper's HTM is single-transaction-per-hardware-thread).
 *
 * MemorySystem holds a pointer to it and calls the inline protocol
 * methods below (inTx, txTs, specModified, remoteAbort, noteSpecLine)
 * directly on the access fast path.
 */
class HtmManager
{
  public:
    HtmManager(const MachineConfig &cfg, MemorySystem &mem,
               SimMemory &memory);

    // --- transaction lifecycle (called by the runtime) ---

    /**
     * Start an attempt of a transaction. The timestamp is assigned on
     * the first attempt and kept across retries so older transactions
     * eventually win (livelock freedom, Sec. III-B1).
     */
    void beginAttempt(CoreId core);

    /**
     * Commit: applies the write buffer (U-held lines commit into the
     * core's U copy, everything else into SimMemory) and clears the
     * speculative sets. The caller must have observed the doomed flag
     * (and taken the abort path) first; commit never throws.
     *
     * Under lazy conflict detection this is also the arbitration point
     * (Sec. III-D): the committer aborts every concurrent transaction
     * whose read/write/labeled set intersects its write set, and its
     * buffered writes are made public with non-speculative stores.
     * Both walks visit lines in ascending address order, so victim
     * order and publication order are platform-independent.
     *
     * Commit is atomic in simulated time (no yields).
     * @return extra commit latency (lazy write publication); 0 in
     *         eager mode, where the writes already own their lines.
     */
    Cycle commit(CoreId core);

    /**
     * Locally abort the current attempt: discard the write buffer,
     * release the speculative sets. Returns the backoff delay (cycles)
     * the core must stall before retrying.
     */
    Cycle abortAttempt(CoreId core, AbortCause cause, Rng &rng);

    /** Finish a txRun (after commit): resets per-transaction state. */
    void finish(CoreId core);

    /** The transaction was doomed by a remote abort; must unwind. */
    bool doomed(CoreId core) const { return txs_[core].doomed; }
    AbortCause doomCause(CoreId core) const { return txs_[core].doomCause; }

    /** Labeled ops demoted to plain ops for this (re-)execution. */
    bool demoted(CoreId core) const { return txs_[core].demoteLabeled; }
    void setDemoted(CoreId core) { txs_[core].demoteLabeled = true; }

    WriteBuffer &writeBuffer(CoreId core) { return txs_[core].wb; }

    /** @p line is in @p core's labeled (commutative) set. */
    bool
    inLabeledSet(CoreId core, Addr line) const
    {
        return txs_[core].kindsOf(line) & specBit(SpecKind::Labeled);
    }

    // --- called by the coherence protocol (MemorySystem) ---

    /** Core @p c runs an active, not-yet-doomed transaction. */
    bool
    inTx(CoreId c) const
    {
        return txs_[c].active && !txs_[c].doomed;
    }

    /** Timestamp of @p c's transaction (valid when active). */
    Timestamp
    txTs(CoreId c) const
    {
        assert(txs_[c].active);
        return txs_[c].ts;
    }

    /** @p c's transaction has buffered speculative writes to @p line. */
    bool
    specModified(CoreId c, Addr line) const
    {
        return txs_[c].active && txs_[c].wb.touches(line);
    }

    /** Doom @p victim's transaction (it aborts when next scheduled). */
    void remoteAbort(CoreId victim, AbortCause cause);

    /** (core, line) joined the @p kind set. */
    void
    noteSpecLine(CoreId c, Addr line, SpecKind kind)
    {
        Tx &tx = txs_[c];
        assert(tx.active);
        uint8_t &kinds = tx.footprint[line];
        if (!kinds)
            tx.specLines.push_back(line);
        kinds |= specBit(kind);
    }

  private:
    friend class InvariantChecker;

    struct Tx {
        bool active = false;
        bool doomed = false;
        AbortCause doomCause = AbortCause::Explicit;
        /** Whole-transaction timestamp; 0 until the first attempt
         *  assigns one (nextTs_ starts at 1). */
        Timestamp ts = 0;
        uint32_t attempts = 0;
        bool demoteLabeled = false;
        /**
         * The speculative read, write and labeled sets (Sec. III-B) as
         * one map: each line's specBit mask of the kinds it joined.
         * Lazy commit-time arbitration reads it (cache residency is
         * not required for tracking); ascending-address walks keep
         * arbitration deterministic.
         */
        FlatLineMap<uint8_t> footprint;
        /** The footprint's lines in joining order, for O(set) release
         *  of their L1 bits. */
        std::vector<Addr> specLines;
        WriteBuffer wb;

        /** @p line's kinds mask; 0 outside the footprint. */
        uint8_t
        kindsOf(Addr line) const
        {
            const auto kinds = footprint.find(line);
            return kinds ? *kinds : 0;
        }
    };

    /** Lazy mode: abort every concurrent transaction conflicting with
     *  the committer's written and labeled lines (each in ascending
     *  order). */
    void lazyArbitrate(CoreId committer,
                       const std::vector<Addr> &write_lines,
                       const std::vector<Addr> &labeled_lines);

    /** Clear all L1 speculative bits of @p core's transaction. */
    void releaseSpecSets(Tx &tx, CoreId core);

    const MachineConfig &cfg_;
    MemorySystem &mem_;
    SimMemory &memory_;
    std::vector<Tx> txs_;
    Timestamp nextTs_ = 1;
};

} // namespace commtm

#endif // COMMTM_HTM_HTM_H
