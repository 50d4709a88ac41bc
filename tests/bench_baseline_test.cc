/**
 * @file
 * Regression tests for the perf-baseline JSON reader/writer and the
 * check/merge rules (bench/baseline_io.h). Four historical bugs
 * anchor these:
 *
 *  - parseNumber handed p_ straight to strtod, which scans until a
 *    non-number byte; on a buffer that ends mid-number (truncated
 *    file, or any mmap'd range with no trailing NUL) it read past
 *    end_. The guard-page tests here put the text flush against a
 *    PROT_NONE page so the overread faults deterministically instead
 *    of silently depending on heap layout.
 *
 *  - parseEntry routed the exact counters through double, so any
 *    sim_cycles value above 2^53 was rounded to the nearest
 *    representable double and the "exact" baseline check compared
 *    rounded values. The counters now parse as uint64_t directly.
 *
 *  - A row whose end state failed validation was still recorded, so
 *    --write-baseline pinned it and --check-baseline passed it.
 *    Invalid rows now never merge and always fail the check.
 *
 *  - check() compared only the rows the run produced, so a sweep
 *    point or family dropped from the benches passed silently. An
 *    unfiltered check now fails on every pinned row nobody produced,
 *    and an unfiltered write pins exactly the produced rows.
 */

#include <gtest/gtest.h>

#include <sys/mman.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "bench/baseline_io.h"

namespace commtm {
namespace benchutil {
namespace baseline {
namespace {

bool
parseText(const std::string &text, File &out, std::string &err)
{
    Parser parser(text.data(), text.data() + text.size());
    return parser.parseFile(out, err);
}

TEST(BaselineParser, RoundTripsWriterOutput)
{
    File file;
    file["fig09"]["Baseline @128t"] = {123456789, 1000, 37, 1.0};
    file["fig09"]["CommTM @128t"] = {1234, 1000, 0, 95.5};
    file["fig12"]["CommTM/lazy @256t"] = {42, 7, 3, 0.125};

    const std::string path =
        ::testing::TempDir() + "/baseline_roundtrip.json";
    ASSERT_TRUE(save(path, file));
    File loaded;
    std::string err;
    ASSERT_TRUE(load(path, loaded, err)) << err;
    ASSERT_EQ(loaded.size(), 2u);
    EXPECT_EQ(loaded["fig09"]["Baseline @128t"].simCycles, 123456789u);
    EXPECT_EQ(loaded["fig09"]["CommTM @128t"].speedup, 95.5);
    EXPECT_EQ(loaded["fig12"]["CommTM/lazy @256t"].aborts, 3u);
    std::remove(path.c_str());
}

TEST(BaselineParser, CountersAboveDoublePrecisionStayExact)
{
    // 2^53 + 1 is the first integer a double cannot represent; the old
    // through-double path parsed it as 9007199254740992.
    const uint64_t big = 9007199254740993ull;
    File file;
    file["fam"]["row"] = {big, UINT64_MAX, 0, 1.0};

    const std::string path = ::testing::TempDir() + "/baseline_exact.json";
    ASSERT_TRUE(save(path, file));
    File loaded;
    std::string err;
    ASSERT_TRUE(load(path, loaded, err)) << err;
    EXPECT_EQ(loaded["fam"]["row"].simCycles, big);
    EXPECT_EQ(loaded["fam"]["row"].commits, UINT64_MAX);
    std::remove(path.c_str());
}

TEST(BaselineParser, RejectsNonIntegerCounters)
{
    File out;
    std::string err;
    EXPECT_FALSE(parseText(
        R"({"f": {"r": {"sim_cycles": 1.5}}})", out, err));
    EXPECT_FALSE(parseText(
        R"({"f": {"r": {"commits": -1}}})", out, err));
    EXPECT_FALSE(parseText(
        R"({"f": {"r": {"aborts": 1e3}}})", out, err));
    // One past UINT64_MAX must overflow, not wrap or saturate quietly.
    EXPECT_FALSE(parseText(
        R"({"f": {"r": {"commits": 18446744073709551616}}})", out, err));
    EXPECT_NE(err.find("overflows"), std::string::npos) << err;
    // speedup stays a double: fractions and exponents are fine there.
    File ok;
    EXPECT_TRUE(parseText(
        R"({"f": {"r": {"speedup": 1.5e-3}}})", ok, err)) << err;
    EXPECT_EQ(ok["f"]["r"].speedup, 1.5e-3);
}

TEST(BaselineParser, RejectsOverlongNumberToken)
{
    std::string text = R"({"f": {"r": {"sim_cycles": )";
    text.append(80, '9');
    text += "}}}";
    File out;
    std::string err;
    EXPECT_FALSE(parseText(text, out, err));
    EXPECT_NE(err.find("too long"), std::string::npos) << err;
}

/**
 * Lay @p text out so its last byte is flush against a PROT_NONE guard
 * page: any read one past the end faults instead of returning
 * whatever the heap happens to hold. Returns the pointer to the text
 * (not NUL-terminated, by construction).
 */
class GuardedBuffer
{
  public:
    explicit GuardedBuffer(const std::string &text)
    {
        page_ = size_t(sysconf(_SC_PAGESIZE));
        ASSERT_TRUE_CTOR(text.size() <= page_);
        map_ = static_cast<char *>(
            mmap(nullptr, 2 * page_, PROT_READ | PROT_WRITE,
                 MAP_PRIVATE | MAP_ANONYMOUS, -1, 0));
        ASSERT_TRUE_CTOR(map_ != MAP_FAILED);
        ASSERT_TRUE_CTOR(
            mprotect(map_ + page_, page_, PROT_NONE) == 0);
        begin_ = map_ + page_ - text.size();
        std::memcpy(begin_, text.data(), text.size());
        end_ = map_ + page_;
    }

    ~GuardedBuffer()
    {
        if (map_ && map_ != MAP_FAILED)
            munmap(map_, 2 * page_);
    }

    const char *begin() const { return begin_; }
    const char *end() const { return end_; }

  private:
    // gtest's ASSERT_* need a void return; constructors don't have
    // one. abort() keeps the failure loud without that plumbing.
    static void
    ASSERT_TRUE_CTOR(bool ok)
    {
        if (!ok)
            abort();
    }

    size_t page_ = 0;
    char *map_ = nullptr;
    char *begin_ = nullptr;
    char *end_ = nullptr;
};

TEST(BaselineParser, TruncatedNumberAtBufferEndDoesNotOverread)
{
    // The buffer ends mid-number, with no trailing NUL: the old
    // strtod(p_, ...) call scanned into the guard page and SIGSEGV'd
    // here. The fixed parser must stop at end_ and report a clean
    // error (truncated file — the object is never closed).
    GuardedBuffer buf(R"({"f": {"r": {"sim_cycles": 123456)");
    Parser parser(buf.begin(), buf.end());
    File out;
    std::string err;
    EXPECT_FALSE(parser.parseFile(out, err));
    EXPECT_NE(err.find("EOF"), std::string::npos) << err;
}

TEST(BaselineParser, CompleteFileAgainstGuardPageParses)
{
    // A well-formed file whose final byte touches the guard page: the
    // parser must consume it fully without peeking past end_.
    GuardedBuffer buf(
        R"({"f": {"r": {"sim_cycles": 7, "speedup": 2.5}}})");
    Parser parser(buf.begin(), buf.end());
    File out;
    std::string err;
    ASSERT_TRUE(parser.parseFile(out, err)) << err;
    EXPECT_EQ(out["f"]["r"].simCycles, 7u);
    EXPECT_EQ(out["f"]["r"].speedup, 2.5);
}

TEST(BaselineParser, NumberFlushAgainstGuardPageParses)
{
    // Edge case of the bounded tokenizer itself: the number's last
    // digit is the last readable byte. numberToken must not test
    // p_[len] before checking p_ + len < end_.
    GuardedBuffer buf(R"({"f": {"r": {"speedup": 0.25)");
    Parser parser(buf.begin(), buf.end());
    File out;
    std::string err;
    EXPECT_FALSE(parser.parseFile(out, err));
    // The number itself parsed; the failure is the missing '}'.
    EXPECT_NE(err.find("EOF"), std::string::npos) << err;
}

TEST(BaselineParser, QuantileFieldsRoundTrip)
{
    File file;
    Entry svc;
    svc.simCycles = 81660;
    svc.commits = 6144;
    svc.aborts = 0;
    svc.speedup = 2.119;
    svc.hasQuantiles = true;
    svc.p50 = 59;
    svc.p99 = 991;
    svc.p999 = 9007199254740993ull; // above 2^53: must stay exact
    file["svc_counter"]["CommTM burst @128t"] = svc;
    file["fig09"]["Baseline @128t"] = {123, 45, 6, 1.0};

    const std::string path =
        ::testing::TempDir() + "/baseline_quantiles.json";
    ASSERT_TRUE(save(path, file));
    File loaded;
    std::string err;
    ASSERT_TRUE(load(path, loaded, err)) << err;
    const Entry &got = loaded["svc_counter"]["CommTM burst @128t"];
    EXPECT_TRUE(got.hasQuantiles);
    EXPECT_EQ(got.p50, 59u);
    EXPECT_EQ(got.p99, 991u);
    EXPECT_EQ(got.p999, 9007199254740993ull);
    // Closed-loop rows neither write nor acquire quantile keys: old
    // baseline files and new ones must stay byte-interchangeable for
    // every pre-existing row.
    EXPECT_FALSE(loaded["fig09"]["Baseline @128t"].hasQuantiles);
    std::ifstream in(path);
    std::stringstream buf;
    buf << in.rdbuf();
    const std::string text = buf.str();
    const size_t fig_at = text.find("\"fig09\"");
    const size_t svc_at = text.find("\"svc_counter\"");
    ASSERT_NE(fig_at, std::string::npos);
    ASSERT_NE(svc_at, std::string::npos);
    // Families serialize in map order, so fig09's row text is the
    // [fig09, svc_counter) range: it must carry no quantile keys.
    ASSERT_LT(fig_at, svc_at);
    EXPECT_EQ(text.substr(fig_at, svc_at - fig_at).find("\"p50\""),
              std::string::npos);
    EXPECT_NE(text.find("\"p50\": 59", svc_at), std::string::npos);
    std::remove(path.c_str());
}

TEST(BaselineParser, UnknownNumericFieldsAreTolerated)
{
    // Forward tolerance: a future writer may pin counters this reader
    // does not know. Numbers skip cleanly; anything else still fails.
    File out;
    std::string err;
    ASSERT_TRUE(parseText(
        R"({"f": {"r": {"sim_cycles": 7, "p75": 12,)"
        R"( "frobnication_index": 1.5e9, "p999": 42}}})",
        out, err))
        << err;
    EXPECT_EQ(out["f"]["r"].simCycles, 7u);
    EXPECT_EQ(out["f"]["r"].p999, 42u);
    EXPECT_TRUE(out["f"]["r"].hasQuantiles);
    EXPECT_FALSE(parseText(
        R"({"f": {"r": {"novel_key": "a string"}}})", out, err));
    EXPECT_FALSE(parseText(
        R"({"f": {"r": {"p50": 1.5}}})", out, err));
}

TEST(BaselineCheck, QuantilePresenceRules)
{
    Entry pinned;
    pinned.simCycles = 10;
    pinned.speedup = 1.0;
    pinned.hasQuantiles = true;
    pinned.p50 = 5;
    pinned.p99 = 50;
    pinned.p999 = 500;

    File file;
    file["svc"]["row"] = pinned;

    // Exact match passes.
    recordedRows().clear();
    recordedRows().push_back({"svc", "row", pinned});
    EXPECT_TRUE(check(file, false));

    // A single drifted quantile fails.
    recordedRows().back().entry.p999 = 501;
    EXPECT_FALSE(check(file, false));

    // A row that stopped reporting pinned quantiles is a regression.
    recordedRows().back().entry = {10, 0, 0, 1.0};
    EXPECT_FALSE(check(file, false));

    // The reverse — bench reports quantiles, baseline file predates
    // them — checks cleanly, so old files stay usable until the next
    // --write-baseline.
    File old_file;
    old_file["svc"]["row"] = {10, 0, 0, 1.0};
    recordedRows().back().entry = pinned;
    EXPECT_TRUE(check(old_file, false));
    recordedRows().clear();
}

TEST(BaselineCheck, MergeReplacesRecordedRowsOnly)
{
    recordedRows().clear();
    recordedRows().push_back({"figA", "row1", {10, 1, 0, 1.0}});
    File file;
    file["figA"]["row1"] = {99, 9, 9, 9.0};
    file["figA"]["row2"] = {7, 7, 7, 7.0};
    file["figB"]["rowX"] = {5, 5, 5, 5.0};
    mergeRecorded(file, /*filtered=*/true);
    EXPECT_EQ(file["figA"]["row1"].simCycles, 10u);
    EXPECT_EQ(file["figA"]["row2"].simCycles, 7u); // untouched
    EXPECT_EQ(file["figB"]["rowX"].simCycles, 5u); // untouched
    recordedRows().clear();
}

TEST(BaselineCheck, UnfilteredMergeKeepsExactlyTheProducedRows)
{
    recordedRows().clear();
    recordedRows().push_back({"figA", "row1", {10, 1, 0, 1.0}});
    recordedRows().push_back({"figC", "new", {3, 3, 3, 3.0}});
    File file;
    file["figA"]["row1"] = {99, 9, 9, 9.0};
    file["figA"]["row2"] = {7, 7, 7, 7.0};
    file["figB"]["rowX"] = {5, 5, 5, 5.0};
    mergeRecorded(file, /*filtered=*/false);
    ASSERT_EQ(file.size(), 2u);
    ASSERT_EQ(file["figA"].size(), 1u);
    EXPECT_EQ(file["figA"]["row1"].simCycles, 10u);
    EXPECT_EQ(file["figC"]["new"].simCycles, 3u);
    recordedRows().clear();
}

TEST(BaselineCheck, UnfilteredCheckFailsOnUnproducedRows)
{
    File file;
    file["figA"]["row1"] = {10, 1, 0, 1.0};
    file["figA"]["row2"] = {7, 7, 7, 7.0}; // a dropped sweep point
    recordedRows().clear();
    recordedRows().push_back({"figA", "row1", {10, 1, 0, 1.0}});
    EXPECT_FALSE(check(file, /*filtered=*/false));
    EXPECT_TRUE(check(file, /*filtered=*/true));

    // A whole family no bench registers any more.
    File dropped_family;
    dropped_family["figA"]["row1"] = {10, 1, 0, 1.0};
    dropped_family["figB"]["rowX"] = {5, 5, 5, 5.0};
    EXPECT_FALSE(check(dropped_family, /*filtered=*/false));
    EXPECT_TRUE(check(dropped_family, /*filtered=*/true));
    recordedRows().clear();
}

TEST(BaselineCheck, InvalidRowsNeverPassOrMerge)
{
    // The row's counters match its pin exactly; only its end-state
    // validation failed.
    const Entry entry = {661, 1, 0, 1.0};
    File file;
    file["fam"]["row"] = entry;
    recordedRows().clear();
    recordedRows().push_back({"fam", "row", entry, /*valid=*/false});
    EXPECT_FALSE(check(file, /*filtered=*/false));
    EXPECT_FALSE(check(file, /*filtered=*/true));

    // Neither kind of write pins it: a filtered merge leaves the file
    // alone, and an unfiltered one keeps the previous pin.
    recordedRows().back().entry.simCycles = 662;
    File empty;
    mergeRecorded(empty, /*filtered=*/true);
    EXPECT_TRUE(empty.empty());
    mergeRecorded(empty, /*filtered=*/false);
    EXPECT_TRUE(empty.empty());
    mergeRecorded(file, /*filtered=*/false);
    EXPECT_EQ(file["fam"]["row"].simCycles, 661u);
    recordedRows().clear();
}

} // namespace
} // namespace baseline
} // namespace benchutil
} // namespace commtm
