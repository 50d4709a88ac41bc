/**
 * @file
 * TraceReader implementation: bounds-checked varint decoding of the
 * sealed header, per-thread streams, and commit order, with
 * field-precise rejection diagnostics.
 */

#include "trace/trace_reader.h"

#include <cstring>

namespace commtm {

using namespace trace;

namespace {

/** Bounds-checked little-endian/varint cursor over one byte range. */
class Cursor
{
  public:
    Cursor(const uint8_t *data, size_t size) : data_(data), size_(size)
    {
    }

    size_t pos() const { return pos_; }
    size_t remaining() const { return size_ - pos_; }

    bool
    u8(uint8_t *v)
    {
        if (pos_ >= size_)
            return false;
        *v = data_[pos_++];
        return true;
    }

    bool
    u32(uint32_t *v)
    {
        if (remaining() < 4)
            return false;
        *v = 0;
        for (int i = 0; i < 4; i++)
            *v |= uint32_t(data_[pos_++]) << (8 * i);
        return true;
    }

    bool
    u64(uint64_t *v)
    {
        if (remaining() < 8)
            return false;
        *v = 0;
        for (int i = 0; i < 8; i++)
            *v |= uint64_t(data_[pos_++]) << (8 * i);
        return true;
    }

    /** LEB128; fails on truncation or a value wider than 64 bits. */
    bool
    varint(uint64_t *v)
    {
        *v = 0;
        for (int shift = 0; shift < 64; shift += 7) {
            if (pos_ >= size_)
                return false;
            const uint8_t byte = data_[pos_++];
            *v |= uint64_t(byte & 0x7f) << shift;
            if ((byte & 0x80) == 0) {
                // The 10th byte may only carry the top bit of a u64.
                return shift < 63 || byte <= 1;
            }
        }
        return false;
    }

    bool
    bytes(std::vector<uint8_t> *out, size_t n)
    {
        if (remaining() < n)
            return false;
        out->assign(data_ + pos_, data_ + pos_ + n);
        pos_ += n;
        return true;
    }

  private:
    const uint8_t *data_;
    size_t size_;
    size_t pos_ = 0;
};

std::string
recordWhere(uint32_t thread, uint64_t record)
{
    return "thread " + std::to_string(thread) + " record " +
           std::to_string(record);
}

bool
fail(std::string *error, const std::string &message)
{
    if (error != nullptr)
        *error = message;
    return false;
}

/** Decode one thread stream; returns false with @p error set. */
bool
parseStream(uint32_t thread, const uint8_t *data, size_t size,
            uint64_t expect_records, std::vector<TraceRecord> *out,
            std::string *error)
{
    Cursor cur(data, size);
    Addr last_addr = 0;
    bool in_tx = false;
    out->reserve(expect_records <= size ? size_t(expect_records) : 0);
    while (cur.remaining() > 0) {
        const uint64_t index = out->size();
        if (index >= expect_records) {
            return fail(error,
                        "thread " + std::to_string(thread) + ": " +
                            std::to_string(cur.remaining()) +
                            " stream bytes after record " +
                            std::to_string(expect_records - 1));
        }
        TraceRecord rec;
        uint8_t kind = 0;
        cur.u8(&kind); // remaining() > 0, cannot fail
        if (kind > uint8_t(TraceOpKind::Annotation)) {
            return fail(error, recordWhere(thread, index) +
                                   ": bad opcode " +
                                   std::to_string(kind));
        }
        rec.kind = TraceOpKind(kind);
        uint64_t v = 0;
        switch (rec.kind) {
          case TraceOpKind::Compute:
            if (!cur.varint(&rec.a)) {
                return fail(error, recordWhere(thread, index) +
                                       ": truncated instr count");
            }
            break;
          case TraceOpKind::Load:
          case TraceOpKind::Store:
          case TraceOpKind::LabeledLoad:
          case TraceOpKind::LabeledStore:
          case TraceOpKind::Gather:
            if (!cur.varint(&v)) {
                return fail(error, recordWhere(thread, index) +
                                       ": truncated address delta");
            }
            rec.addr = Addr(int64_t(last_addr) + unzigzag(v));
            last_addr = rec.addr;
            if (!cur.varint(&v)) {
                return fail(error, recordWhere(thread, index) +
                                       ": truncated size");
            }
            if (v == 0 || v > kLineSize) {
                return fail(error, recordWhere(thread, index) +
                                       ": implausible access size " +
                                       std::to_string(v));
            }
            rec.size = uint32_t(v);
            if (lineOffset(rec.addr) + rec.size > kLineSize) {
                return fail(error, recordWhere(thread, index) +
                                       ": access straddles a cache "
                                       "line");
            }
            if (isLabeled(memOpOf(rec.kind))) {
                if (!cur.u8(&rec.label)) {
                    return fail(error, recordWhere(thread, index) +
                                           ": truncated label");
                }
                if (rec.label >= kMaxHwLabels &&
                    rec.label != kNoLabel) {
                    return fail(error,
                                recordWhere(thread, index) +
                                    ": bad label " +
                                    std::to_string(rec.label));
                }
            }
            if (isStore(memOpOf(rec.kind))) {
                if (!cur.bytes(&rec.data, rec.size)) {
                    return fail(error, recordWhere(thread, index) +
                                           ": truncated operand (" +
                                           std::to_string(rec.size) +
                                           " bytes)");
                }
            }
            break;
          case TraceOpKind::TxBegin:
            if (in_tx) {
                return fail(error, recordWhere(thread, index) +
                                       ": TxBegin inside a "
                                       "transaction");
            }
            in_tx = true;
            break;
          case TraceOpKind::TxEnd:
            if (!in_tx) {
                return fail(error, recordWhere(thread, index) +
                                       ": TxEnd without TxBegin");
            }
            in_tx = false;
            break;
          case TraceOpKind::Barrier:
            if (in_tx) {
                return fail(error, recordWhere(thread, index) +
                                       ": Barrier inside a "
                                       "transaction");
            }
            break;
          case TraceOpKind::Annotation:
            if (!cur.varint(&rec.a) || !cur.varint(&rec.b)) {
                return fail(error, recordWhere(thread, index) +
                                       ": truncated annotation");
            }
            break;
        }
        out->push_back(std::move(rec));
    }
    if (out->size() != expect_records) {
        return fail(error,
                    "thread " + std::to_string(thread) +
                        ": stream ends after record " +
                        std::to_string(out->size()) + " of " +
                        std::to_string(expect_records));
    }
    if (in_tx) {
        return fail(error, "thread " + std::to_string(thread) +
                               ": unterminated transaction at end of "
                               "stream");
    }
    return true;
}

} // namespace

bool
TraceReader::parse(const std::vector<uint8_t> &buf, Trace *out,
                   std::string *error)
{
    *out = Trace{};
    if (buf.size() < kHeaderBytes)
        return fail(error, "truncated header");
    if (std::memcmp(buf.data(), kMagic, sizeof(kMagic)) != 0)
        return fail(error, "bad magic");
    Cursor cur(buf.data() + sizeof(kMagic),
               buf.size() - sizeof(kMagic));
    uint32_t version = 0;
    uint32_t num_threads = 0;
    uint64_t commit_count = 0;
    cur.u32(&version);
    cur.u32(&num_threads);
    cur.u64(&out->configFingerprint);
    cur.u64(&commit_count); // header size checked above
    if (version != kVersion) {
        return fail(error,
                    "unsupported version " + std::to_string(version));
    }
    out->version = version;
    if (cur.remaining() / kThreadEntryBytes < num_threads)
        return fail(error, "truncated thread table");
    std::vector<uint64_t> records(num_threads);
    std::vector<uint64_t> bytes(num_threads);
    for (uint32_t t = 0; t < num_threads; t++) {
        cur.u64(&records[t]);
        cur.u64(&bytes[t]);
    }
    uint64_t stream_bytes = 0;
    for (uint32_t t = 0; t < num_threads; t++) {
        if (bytes[t] > cur.remaining() ||
            stream_bytes + bytes[t] > cur.remaining()) {
            return fail(error,
                        "thread " + std::to_string(t) +
                            ": stream length " +
                            std::to_string(bytes[t]) +
                            " runs past the end of the buffer");
        }
        stream_bytes += bytes[t];
    }
    const uint8_t *streams = buf.data() + (buf.size() - cur.remaining());
    out->threads.resize(num_threads);
    for (uint32_t t = 0; t < num_threads; t++) {
        if (!parseStream(t, streams, size_t(bytes[t]), records[t],
                         &out->threads[t], error)) {
            return false;
        }
        streams += bytes[t];
    }
    Cursor tail(streams,
                size_t(buf.data() + buf.size() - streams));
    out->commitOrder.reserve(
        commit_count <= tail.remaining() ? size_t(commit_count) : 0);
    for (uint64_t i = 0; i < commit_count; i++) {
        uint64_t core = 0;
        if (!tail.varint(&core)) {
            return fail(error, "truncated commit order at entry " +
                                   std::to_string(i));
        }
        if (core >= num_threads) {
            return fail(error, "commit order entry " +
                                   std::to_string(i) + ": core " +
                                   std::to_string(core) +
                                   " out of range");
        }
        out->commitOrder.push_back(CoreId(core));
    }
    if (tail.remaining() != 0) {
        return fail(error, std::to_string(tail.remaining()) +
                               " trailing bytes after the commit "
                               "order");
    }
    return true;
}

} // namespace commtm
