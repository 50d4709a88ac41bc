/**
 * @file
 * CommitLog implementation: digest folding, sealing, and the three
 * diff policies.
 */

#include "sim/commit_log.h"

#include <algorithm>
#include <cassert>
#include <cstdio>

namespace commtm {

namespace {

std::string
hex(uint64_t v)
{
    char buf[19];
    std::snprintf(buf, sizeof(buf), "0x%016llx",
                  (unsigned long long)v);
    return buf;
}

} // namespace

CommitLog::CommitLog(uint32_t num_cores)
    : pending_(num_cores), commits_(num_cores, 0), lastTxId_(num_cores, 0)
{
}

void
CommitLog::noteLabeledOp(CoreId core, MemOp op, Addr addr, Label label,
                         const void *operand, uint32_t size)
{
    // The digest folds kind bytes 0/1/2 for load[label], store[label]
    // and load_gather.
    static_assert(uint8_t(MemOp::LabeledStore) ==
                          uint8_t(MemOp::LabeledLoad) + 1 &&
                      uint8_t(MemOp::Gather) ==
                          uint8_t(MemOp::LabeledLoad) + 2,
                  "labeled MemOps must be contiguous");
    assert(isLabeled(op));
    const uint8_t kind = uint8_t(op) - uint8_t(MemOp::LabeledLoad);
    Pending &p = pending_[core];
    const auto foldShape = [&](FnvDigest &d) {
        d.u8(kind);
        d.u64(addr);
        d.u8(label);
        d.u32(size);
    };
    foldShape(p.shape);
    foldShape(p.values);
    if (operand) {
        if (flipArmed_ && core == flipCore_ &&
            commits_[core] == flipCommit_ &&
            p.labeledOps == flipOp_ && flipByte_ < size) {
            // Test-only divergence injection (setTestOperandFlip).
            const auto *src = static_cast<const uint8_t *>(operand);
            for (uint32_t i = 0; i < size; i++)
                p.values.u8(i == flipByte_ ? uint8_t(src[i] ^ 1)
                                           : src[i]);
        } else {
            p.values.bytes(operand, size);
        }
    }
    p.labeledOps++;
}

void
CommitLog::noteWriteLine(CoreId core, Addr line, uint64_t mask,
                         const uint8_t *data)
{
    Pending &p = pending_[core];
    p.writes.u64(line);
    p.writes.u64(mask);
    for (size_t i = 0; i < kLineSize; i++) {
        if (mask & (uint64_t(1) << i))
            p.writes.u8(data[i]);
    }
    p.writeLines++;
}

void
CommitLog::sealCommit(CoreId core, Cycle commit_cycle)
{
    Pending &p = pending_[core];
    CommitRecord rec;
    rec.txId = records_.size();
    rec.core = core;
    rec.commitIndex = commits_[core]++;
    rec.commitCycle = commit_cycle;
    rec.labeledShape = p.shape.value();
    rec.labeledValues = p.values.value();
    rec.writeValues = p.writes.value();
    rec.labeledOps = p.labeledOps;
    rec.writeLines = p.writeLines;
    lastTxId_[core] = rec.txId;
    records_.push_back(rec);
    p = Pending{};
}

void
CommitLog::abortAttempt(CoreId core)
{
    pending_[core] = Pending{};
}

void
CommitLog::setTestOperandFlip(CoreId core, uint32_t commit_index,
                              uint32_t op_index, uint32_t byte_index)
{
    flipArmed_ = true;
    flipCore_ = core;
    flipCommit_ = commit_index;
    flipOp_ = op_index;
    flipByte_ = byte_index;
}

CommitLogDiff
CommitLog::diff(const std::vector<CommitRecord> &a,
                const std::vector<CommitRecord> &b, DiffMode mode)
{
    CommitLogDiff d;
    const auto fail = [&](const std::string &msg) {
        d.equal = false;
        d.message = msg;
        return d;
    };
    if (mode == DiffMode::Exact) {
        if (a.size() != b.size()) {
            return fail("record counts differ: " + std::to_string(a.size()) +
                        " vs " + std::to_string(b.size()));
        }
        for (size_t i = 0; i < a.size(); i++) {
            const CommitRecord &ra = a[i];
            const CommitRecord &rb = b[i];
            const auto at = [&](const char *field,
                                const std::string &va,
                                const std::string &vb) {
                return fail("record " + std::to_string(i) +
                            " (txId " + std::to_string(ra.txId) +
                            "): " + field + " " + va + " vs " + vb);
            };
            if (ra.core != rb.core)
                return at("core", std::to_string(ra.core),
                          std::to_string(rb.core));
            if (ra.commitIndex != rb.commitIndex)
                return at("commitIndex",
                          std::to_string(ra.commitIndex),
                          std::to_string(rb.commitIndex));
            if (ra.commitCycle != rb.commitCycle)
                return at("commitCycle",
                          std::to_string(ra.commitCycle),
                          std::to_string(rb.commitCycle));
            if (ra.labeledShape != rb.labeledShape)
                return at("labeledShape", hex(ra.labeledShape),
                          hex(rb.labeledShape));
            if (ra.labeledValues != rb.labeledValues)
                return at("labeledValues", hex(ra.labeledValues),
                          hex(rb.labeledValues));
            if (ra.writeValues != rb.writeValues)
                return at("writeValues", hex(ra.writeValues),
                          hex(rb.writeValues));
            if (ra.labeledOps != rb.labeledOps)
                return at("labeledOps", std::to_string(ra.labeledOps),
                          std::to_string(rb.labeledOps));
            if (ra.writeLines != rb.writeLines)
                return at("writeLines", std::to_string(ra.writeLines),
                          std::to_string(rb.writeLines));
        }
        return d;
    }
    // PerCore / Shape: compare each core's commit stream in order,
    // ignoring the global interleaving and cycle counts.
    uint32_t cores = 0;
    for (const auto *log : {&a, &b}) {
        for (const CommitRecord &r : *log)
            cores = std::max(cores, r.core + 1);
    }
    std::vector<std::vector<const CommitRecord *>> byCoreA(cores);
    std::vector<std::vector<const CommitRecord *>> byCoreB(cores);
    for (const CommitRecord &r : a)
        byCoreA[r.core].push_back(&r);
    for (const CommitRecord &r : b)
        byCoreB[r.core].push_back(&r);
    for (uint32_t c = 0; c < cores; c++) {
        if (byCoreA[c].size() != byCoreB[c].size()) {
            return fail("core " + std::to_string(c) + " committed " +
                        std::to_string(byCoreA[c].size()) + " vs " +
                        std::to_string(byCoreB[c].size()) +
                        " transactions");
        }
        for (size_t i = 0; i < byCoreA[c].size(); i++) {
            const CommitRecord &ra = *byCoreA[c][i];
            const CommitRecord &rb = *byCoreB[c][i];
            const auto at = [&](const char *field,
                                const std::string &va,
                                const std::string &vb) {
                return fail("core " + std::to_string(c) +
                            " commit #" + std::to_string(i) +
                            " (txId " + std::to_string(ra.txId) +
                            " vs " + std::to_string(rb.txId) +
                            "): " + field + " " + va + " vs " + vb);
            };
            if (ra.labeledShape != rb.labeledShape)
                return at("labeledShape", hex(ra.labeledShape),
                          hex(rb.labeledShape));
            if (ra.labeledOps != rb.labeledOps)
                return at("labeledOps", std::to_string(ra.labeledOps),
                          std::to_string(rb.labeledOps));
            if (mode == DiffMode::Shape)
                continue;
            if (ra.labeledValues != rb.labeledValues)
                return at("labeledValues", hex(ra.labeledValues),
                          hex(rb.labeledValues));
            if (ra.writeValues != rb.writeValues)
                return at("writeValues", hex(ra.writeValues),
                          hex(rb.writeValues));
            if (ra.writeLines != rb.writeLines)
                return at("writeLines", std::to_string(ra.writeLines),
                          std::to_string(rb.writeLines));
        }
    }
    return d;
}

} // namespace commtm
