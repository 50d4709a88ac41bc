/**
 * @file
 * Fundamental types shared across the CommTM simulator.
 */

#ifndef COMMTM_SIM_TYPES_H
#define COMMTM_SIM_TYPES_H

#include <cstddef>
#include <cstdint>

namespace commtm {

/** Simulated virtual address. The simulated address space is flat. */
using Addr = uint64_t;

/** Simulated time, in core clock cycles. */
using Cycle = uint64_t;

/** Identifier of a simulated core / hardware thread context. */
using CoreId = uint32_t;

/** Transaction timestamp used for conflict resolution (Sec. III-B1). */
using Timestamp = uint64_t;

/** Cache line geometry: 64-byte lines throughout (Table I). */
constexpr uint32_t kLineBits = 6;
constexpr uint32_t kLineSize = 1u << kLineBits;

/** Address of the cache line containing @p addr. */
constexpr Addr
lineAddr(Addr addr)
{
    return addr >> kLineBits;
}

/** Byte offset of @p addr within its cache line. */
constexpr uint32_t
lineOffset(Addr addr)
{
    return static_cast<uint32_t>(addr & (kLineSize - 1));
}

/** First byte address of the line numbered @p line. */
constexpr Addr
lineBase(Addr line)
{
    return line << kLineBits;
}

/**
 * Hardware commutativity label (Sec. III-A). The architecture supports a
 * small number of labels; kNoLabel denotes an unlabeled (conventional)
 * access.
 */
using Label = uint8_t;
constexpr Label kNoLabel = 0xff;
constexpr uint32_t kMaxHwLabels = 8;

/** An invalid core id (e.g., "no owner"). */
constexpr CoreId kNoCore = ~0u;

/** The five memory operations of the ISA. The enumerator values are
 *  part of the trace format (trace/trace_format.h) and the commit-log
 *  digest (sim/commit_log.h); do not reorder. */
enum class MemOp : uint8_t {
    Load,         //!< conventional load
    Store,        //!< conventional store
    LabeledLoad,  //!< load[label] (Sec. III-A)
    LabeledStore, //!< store[label]
    Gather,       //!< load_gather[label] (Sec. IV)
};

/** load[label], store[label] or load_gather. */
constexpr bool
isLabeled(MemOp op)
{
    return op == MemOp::LabeledLoad || op == MemOp::LabeledStore ||
           op == MemOp::Gather;
}

/** store or store[label]: the op carries an operand to write. */
constexpr bool
isStore(MemOp op)
{
    return op == MemOp::Store || op == MemOp::LabeledStore;
}

} // namespace commtm

#endif // COMMTM_SIM_TYPES_H
