/**
 * @file
 * TraceWriter implementation: per-thread varint/delta record encoding
 * straight into the thread streams (an aborted attempt is truncated
 * away), and the sealed-header serializer.
 */

#include "trace/trace_writer.h"

#include <cassert>
#include <cstring>

#include "sim/check.h"

namespace commtm {

using namespace trace;

TraceWriter::TraceWriter(const MachineConfig &cfg)
    : fingerprint_(configFingerprint(cfg)), streams_(cfg.numCores)
{
}

uint64_t
TraceWriter::recordsOf(CoreId core) const
{
    return streams_[core].records;
}

TraceWriter::Stream &
TraceWriter::record(CoreId core, TraceOpKind kind)
{
    Stream &s = streams_[core];
    s.bytes.push_back(uint8_t(kind));
    s.records++;
    return s;
}

void
TraceWriter::noteCompute(CoreId core, uint64_t instrs)
{
    putVarint(record(core, TraceOpKind::Compute).bytes, instrs);
}

void
TraceWriter::noteAccess(CoreId core, MemOp op, Addr addr, uint32_t size,
                        Label label, const void *data)
{
    // Encode into a local buffer and append once: in an abort-heavy
    // run most records are truncated away again, so a record's append
    // must cost about what buffering it did.
    COMMTM_CHECK(size <= kLineSize, "captured access of %u bytes "
                                    "exceeds a cache line", size);
    uint8_t buf[1 + 2 * kMaxVarintBytes + 1 + kLineSize];
    Stream &s = streams_[core];
    uint8_t *p = buf;
    *p++ = uint8_t(traceKind(op));
    p = putVarint(p, zigzag(int64_t(addr - s.lastAddr)));
    p = putVarint(p, size);
    if (isLabeled(op))
        *p++ = label;
    if (isStore(op)) {
        std::memcpy(p, data, size);
        p += size;
    }
    s.bytes.insert(s.bytes.end(), buf, p);
    s.records++;
    s.lastAddr = addr;
}

void
TraceWriter::noteBarrier(CoreId core)
{
    assert(!streams_[core].inAttempt &&
           "barriers cannot appear inside transactions");
    record(core, TraceOpKind::Barrier);
}

void
TraceWriter::noteAnnotation(CoreId core, uint32_t code, uint64_t value)
{
    Stream &s = record(core, TraceOpKind::Annotation);
    putVarint(s.bytes, code);
    putVarint(s.bytes, value);
}

void
TraceWriter::beginAttempt(CoreId core)
{
    Stream &s = streams_[core];
    assert(!s.inAttempt);
    s.attemptStart = {s.bytes.size(), s.records, s.lastAddr};
    s.inAttempt = true;
    record(core, TraceOpKind::TxBegin);
}

void
TraceWriter::commitAttempt(CoreId core)
{
    Stream &s = record(core, TraceOpKind::TxEnd);
    assert(s.inAttempt);
    s.inAttempt = false;
    commitOrder_.push_back(core);
}

void
TraceWriter::abortAttempt(CoreId core)
{
    Stream &s = streams_[core];
    assert(s.inAttempt);
    s.bytes.resize(s.attemptStart.bytes);
    s.records = s.attemptStart.records;
    s.lastAddr = s.attemptStart.lastAddr;
    s.inAttempt = false;
}

std::vector<uint8_t>
TraceWriter::serialize() const
{
    for (const Stream &s : streams_) {
        COMMTM_CHECK(!s.inAttempt, "trace serialized while a "
                                   "transaction attempt is open");
    }
    std::vector<uint8_t> out;
    size_t total = kHeaderBytes + streams_.size() * kThreadEntryBytes +
                   commitOrder_.size();
    for (const Stream &s : streams_)
        total += s.bytes.size();
    out.reserve(total);

    const auto put32 = [&out](uint32_t v) {
        for (int i = 0; i < 4; i++)
            out.push_back(uint8_t(v >> (8 * i)));
    };
    const auto put64 = [&out](uint64_t v) {
        for (int i = 0; i < 8; i++)
            out.push_back(uint8_t(v >> (8 * i)));
    };

    for (const char c : kMagic)
        out.push_back(uint8_t(c));
    put32(kVersion);
    put32(uint32_t(streams_.size()));
    put64(fingerprint_);
    put64(commitOrder_.size());
    for (const Stream &s : streams_) {
        put64(s.records);
        put64(s.bytes.size());
    }
    for (const Stream &s : streams_)
        out.insert(out.end(), s.bytes.begin(), s.bytes.end());
    for (const CoreId core : commitOrder_)
        putVarint(out, core);
    return out;
}

} // namespace commtm
