/**
 * @file
 * Commit-order recording (docs/ARCHITECTURE.md Sec. 9): when enabled
 * on MachineConfig, every transaction commit appends a CommitRecord
 * {txId, core, commitCycle, digests of the labeled ops and of the
 * conventional write set} to an in-memory log. Recording is strictly
 * observation-only — it reads speculative state the commit path
 * already walks and never touches simulated behavior — so the exact
 * same log can be captured from a baseline run without perturbing a
 * single counter. The records are a plain value: runs hand them
 * around and diff them in-process, and the replay oracle
 * (sim/replay_oracle.h) builds both of its checks on top.
 */

#ifndef COMMTM_SIM_COMMIT_LOG_H
#define COMMTM_SIM_COMMIT_LOG_H

#include <cstdint>
#include <string>
#include <vector>

#include "sim/types.h"

namespace commtm {

/**
 * FNV-1a over explicitly little-endian-encoded fields: the digest of
 * a commit is a pure function of the operation stream, independent of
 * host endianness or struct layout.
 */
class FnvDigest
{
  public:
    static constexpr uint64_t kBasis = 14695981039346656037ull;
    static constexpr uint64_t kPrime = 1099511628211ull;

    uint64_t value() const { return h_; }

    void
    u8(uint8_t v)
    {
        h_ = (h_ ^ v) * kPrime;
    }

    void
    u32(uint32_t v)
    {
        for (int i = 0; i < 4; i++)
            u8(uint8_t(v >> (8 * i)));
    }

    void
    u64(uint64_t v)
    {
        for (int i = 0; i < 8; i++)
            u8(uint8_t(v >> (8 * i)));
    }

    void
    bytes(const void *data, size_t size)
    {
        const auto *p = static_cast<const uint8_t *>(data);
        for (size_t i = 0; i < size; i++)
            u8(p[i]);
    }

  private:
    uint64_t h_ = kBasis;
};

/**
 * One committed transaction. txId is the global commit sequence
 * number (log position); commitIndex is the per-core commit count.
 * The three digests separate concerns: labeledShape covers only the
 * structural fields of labeled ops (kind, address, label, size) and
 * is comparable across eager and lazy runs of the same workload;
 * labeledValues additionally folds in store operand bytes (partial
 * values legitimately differ across modes, so it is only comparable
 * same-mode); writeValues covers the committed conventional
 * write-buffer entries (line, byte mask, masked bytes).
 */
struct CommitRecord {
    uint64_t txId = 0;
    uint32_t core = 0;
    uint32_t commitIndex = 0;
    Cycle commitCycle = 0;
    uint64_t labeledShape = FnvDigest::kBasis;
    uint64_t labeledValues = FnvDigest::kBasis;
    uint64_t writeValues = FnvDigest::kBasis;
    uint32_t labeledOps = 0;
    uint32_t writeLines = 0;
};

/** Result of CommitLog::diff: equal, or a precise first difference. */
struct CommitLogDiff {
    bool equal = true;
    std::string message;
};

/**
 * How two logs are compared.
 *  - Exact: same global record sequence, all fields (including
 *    commitCycle). Right for same-config same-seed determinism.
 *  - PerCore: per-core commit streams must match in all digests and
 *    counts; the global interleaving (and cycles) may differ. Right
 *    for runs that differ only in timing.
 *  - Shape: per-core streams must match in labeledShape and op
 *    counts only. Right for eager-vs-lazy differential comparison,
 *    where operand bytes and write digests legitimately diverge.
 */
enum class DiffMode {
    Exact,
    PerCore,
    Shape,
};

/**
 * The per-machine commit log. ThreadContext drives recording: it
 * notes each labeled op that stayed labeled, and at the commit point
 * txRun folds the conventional write-buffer lines and seals the record
 * right before HtmManager::commit, with no yield in between (commit
 * order in the log therefore equals the functional commit order).
 * Aborted attempts discard their pending digests.
 */
class CommitLog
{
  public:
    explicit CommitLog(uint32_t num_cores);

    // --- recording (called from the commit path) ---

    /** Fold one labeled op (isLabeled(@p op)) into the pending
     *  digests of @p core. @p operand is the store value (nullptr for
     *  loads/gathers). */
    void noteLabeledOp(CoreId core, MemOp op, Addr addr, Label label,
                       const void *operand, uint32_t size);

    /** Fold one committed conventional write-buffer line. */
    void noteWriteLine(CoreId core, Addr line, uint64_t mask,
                       const uint8_t *data);

    /** Seal the pending digests of @p core into a CommitRecord. */
    void sealCommit(CoreId core, Cycle commit_cycle);

    /** Discard the pending digests of an aborted attempt. */
    void abortAttempt(CoreId core);

    // --- inspection ---

    const std::vector<CommitRecord> &records() const { return records_; }
    /** Commits sealed so far by @p core. */
    uint32_t commitsOf(CoreId core) const { return commits_[core]; }
    /** txId of @p core's most recent commit; needs commitsOf > 0. */
    uint64_t lastCommitOf(CoreId core) const { return lastTxId_[core]; }

    /** First difference between two record sequences under @p mode
     *  (see DiffMode); the message names core, commit index, txId,
     *  and field. */
    static CommitLogDiff diff(const std::vector<CommitRecord> &a,
                              const std::vector<CommitRecord> &b,
                              DiffMode mode);

    /**
     * Test-only fault injection: flip bit 0 of byte @p byte_index of
     * the operand of labeled op @p op_index inside commit
     * @p commit_index of @p core, before it is folded into the
     * labeledValues digest. Models a recording divergence so tests
     * can prove the differential oracle actually fails; never used
     * outside tests.
     */
    void setTestOperandFlip(CoreId core, uint32_t commit_index,
                            uint32_t op_index, uint32_t byte_index);

  private:
    struct Pending {
        FnvDigest shape;
        FnvDigest values;
        FnvDigest writes;
        uint32_t labeledOps = 0;
        uint32_t writeLines = 0;
    };

    std::vector<Pending> pending_;   //!< one open record per core
    std::vector<uint32_t> commits_;  //!< per-core sealed-commit count
    std::vector<uint64_t> lastTxId_; //!< per-core most recent txId
    std::vector<CommitRecord> records_;

    bool flipArmed_ = false;
    CoreId flipCore_ = 0;
    uint32_t flipCommit_ = 0;
    uint32_t flipOp_ = 0;
    uint32_t flipByte_ = 0;
};

} // namespace commtm

#endif // COMMTM_SIM_COMMIT_LOG_H
