/**
 * @file
 * On-disk trace format shared by TraceWriter and TraceReader
 * (docs/ARCHITECTURE.md Sec. 11; `commtm_bench --trace-info` dumps and
 * validates a capture file). A trace is the logical per-thread
 * operation stream of one Machine run — the ops a workload body
 * issued through ThreadContext, recorded at the API level (pre label
 * demotion, pre lazy-store conversion) so a replay re-resolves those
 * decisions through the live machine it runs on.
 *
 * Layout (all integers little-endian; varints are LEB128):
 *
 *   header   8 B magic "CTMTRACE", u32 version, u32 numThreads,
 *            u64 configFingerprint, u64 commitCount        (32 B)
 *   table    numThreads x { u64 recordCount, u64 byteCount } (16 B each)
 *   streams  numThreads varint-encoded record streams, concatenated in
 *            thread order, byteCount bytes each
 *   commits  commitCount varint core ids — the functional commit order
 *            (the PR 6 commit log's order, captured at the same
 *            atomic-in-simulated-time commit point)
 *
 * Record encoding (one per ThreadContext API call, first byte = kind):
 *
 *   Compute       varint instrs
 *   Load          svarint addrDelta, varint size
 *   Store         svarint addrDelta, varint size, size operand bytes
 *   LabeledLoad   svarint addrDelta, varint size, u8 label
 *   LabeledStore  svarint addrDelta, varint size, u8 label, size bytes
 *   Gather        svarint addrDelta, varint size, u8 label
 *   TxBegin       (no payload) — start of a committed transaction
 *   TxEnd         (no payload)
 *   Barrier       (no payload)
 *   Annotation    varint code, varint value
 *
 * addrDelta is zigzag-encoded relative to the previous addressed
 * record of the same thread stream (initially 0): workload access
 * streams are strongly local, so deltas keep most records at 3-5
 * bytes. No access record straddles a cache line (bulk
 * readBytes/writeBytes calls capture one record per line chunk), so
 * every record replays through ThreadContext::access. Only
 * committed transaction attempts appear (aborted attempts are
 * discarded at capture, exactly like the commit log's pending
 * digests); a replayed transaction that aborts re-issues the recorded
 * ops from the TxBegin boundary, like any closed-loop body retry.
 */

#ifndef COMMTM_TRACE_TRACE_FORMAT_H
#define COMMTM_TRACE_TRACE_FORMAT_H

#include <cstdint>
#include <vector>

#include "sim/commit_log.h"
#include "sim/config.h"
#include "sim/types.h"

namespace commtm {

/** Record kinds of the per-thread streams (first byte of a record). */
enum class TraceOpKind : uint8_t {
    Compute = 0,
    Load = 1,
    Store = 2,
    LabeledLoad = 3,
    LabeledStore = 4,
    Gather = 5,
    TxBegin = 6,
    TxEnd = 7,
    Barrier = 8,
    Annotation = 9,
};

/** The access record kind of @p op: the five MemOps in order. */
constexpr TraceOpKind
traceKind(MemOp op)
{
    return TraceOpKind(uint8_t(op) + 1);
}

/** The MemOp of an access record kind (Load..Gather). */
constexpr MemOp
memOpOf(TraceOpKind kind)
{
    return MemOp(uint8_t(kind) - 1);
}

static_assert(traceKind(MemOp::Load) == TraceOpKind::Load &&
                  traceKind(MemOp::Store) == TraceOpKind::Store &&
                  traceKind(MemOp::LabeledLoad) ==
                      TraceOpKind::LabeledLoad &&
                  traceKind(MemOp::LabeledStore) ==
                      TraceOpKind::LabeledStore &&
                  traceKind(MemOp::Gather) == TraceOpKind::Gather,
              "access record kinds follow MemOp's order");

/** Annotation codes emitted by the commutative data-type library
 *  (structure-level ops; observation-only, like the records guide a
 *  reader but never affect replay timing). */
enum : uint32_t {
    kAnnotCounterAdd = 1,
    kAnnotListEnqueue = 2,
    kAnnotListDequeue = 3,
};

namespace trace {

constexpr char kMagic[8] = {'C', 'T', 'M', 'T', 'R', 'A', 'C', 'E'};
constexpr uint32_t kVersion = 1;
constexpr size_t kHeaderBytes = 32;
constexpr size_t kThreadEntryBytes = 16;
/** Longest LEB128 encoding of a uint64_t. */
constexpr size_t kMaxVarintBytes = 10;

/** Write @p v LEB128-encoded (7 bits per byte, high bit = more) at
 *  @p p; returns the end of the encoding. */
inline uint8_t *
putVarint(uint8_t *p, uint64_t v)
{
    while (v >= 0x80) {
        *p++ = uint8_t(v) | 0x80;
        v >>= 7;
    }
    *p++ = uint8_t(v);
    return p;
}

/** Append @p v LEB128-encoded. */
inline void
putVarint(std::vector<uint8_t> &out, uint64_t v)
{
    uint8_t buf[kMaxVarintBytes];
    out.insert(out.end(), buf, putVarint(buf, v));
}

/** Zigzag-map a signed delta into the varint-friendly unsigneds. */
inline uint64_t
zigzag(int64_t v)
{
    return (uint64_t(v) << 1) ^ uint64_t(v >> 63);
}

inline int64_t
unzigzag(uint64_t v)
{
    return int64_t(v >> 1) ^ -int64_t(v & 1);
}

/**
 * Fingerprint of the simulated-machine configuration a trace was
 * captured under, folded over every field that affects simulated
 * behavior (geometry, latencies, HTM policy, mode, seed) and none of
 * the observation-only knobs (recordCommits, checkInvariants,
 * captureTrace, scheduler cross-check cadence), which are bit-identity
 * -neutral by contract. Informational: replay accepts any config —
 * the fingerprint tells tools whether counters are comparable to the
 * capture run.
 */
inline uint64_t
configFingerprint(const MachineConfig &cfg)
{
    FnvDigest d;
    d.u32(cfg.numCores);
    d.u32(cfg.numTiles);
    d.u32(cfg.meshDim);
    d.u32(cfg.l1SizeKB);
    d.u32(cfg.l1Ways);
    d.u64(cfg.l1Latency);
    d.u32(cfg.l2SizeKB);
    d.u32(cfg.l2Ways);
    d.u64(cfg.l2Latency);
    d.u32(cfg.l3SizeKB);
    d.u32(cfg.l3Ways);
    d.u32(cfg.l3Banks);
    d.u64(cfg.l3BankLatency);
    d.u64(cfg.routerLatency);
    d.u64(cfg.linkLatency);
    d.u64(cfg.memLatency);
    d.u8(uint8_t(cfg.conflictDetection));
    d.u8(uint8_t(cfg.conflictPolicy));
    d.u64(cfg.backoffBase);
    d.u32(cfg.backoffMaxExp);
    d.u64(cfg.txBeginCost);
    d.u64(cfg.txCommitCost);
    d.u64(cfg.abortCost);
    d.u8(uint8_t(cfg.mode));
    d.u32(cfg.hwLabels);
    d.u64(cfg.reductionFixedCost);
    d.u32(cfg.gatherFanoutLimit);
    d.u64(cfg.schedQuantum);
    d.u64(cfg.seed);
    return d.value();
}

} // namespace trace
} // namespace commtm

#endif // COMMTM_TRACE_TRACE_FORMAT_H
