/**
 * @file
 * Perf-baseline file I/O: the exact-counter records behind
 * commtm_bench's --check-baseline / --write-baseline (see
 * docs/BENCHMARKS.md, "Perf baselines and regression checking").
 *
 * This header depends only on the standard library, so the regression
 * tests and bench/perf use the parser without the bench families.
 */

#ifndef COMMTM_BENCH_BASELINE_IO_H
#define COMMTM_BENCH_BASELINE_IO_H

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

namespace commtm {
namespace benchutil {
namespace baseline {

/** Exact counters of one benchmark row. Integers compare exactly;
 *  speedup is a formatted double and compares with a small relative
 *  tolerance (see docs/BENCHMARKS.md). Open-loop service rows
 *  additionally pin exact latency quantiles in simulated cycles
 *  (sim/latency_hist.h bucket bounds, so they are platform-exact);
 *  rows without them — every closed-loop row — neither write nor
 *  check the quantile keys, keeping old baseline files valid. */
struct Entry {
    uint64_t simCycles = 0;
    uint64_t commits = 0;
    uint64_t aborts = 0;
    double speedup = 0.0;
    bool hasQuantiles = false;
    uint64_t p50 = 0;
    uint64_t p99 = 0;
    uint64_t p999 = 0;
};

/** family -> row label ("Baseline @128t") -> counters. */
using Family = std::map<std::string, Entry>;
using File = std::map<std::string, Family>;

/** Rows commtm_bench produced in this process, in run order. */
struct Recorded {
    std::string family;
    std::string row;
    Entry entry;
    /** The row's end state validated; an invalid row is never merged
     *  into a baseline file and always fails check(). */
    bool valid = true;
};

inline std::vector<Recorded> &
recordedRows()
{
    static std::vector<Recorded> rows;
    return rows;
}

// --- minimal JSON subset reader (objects, string keys, numbers) ---
// The baseline file is machine-written by --write-baseline; this
// parser accepts exactly that shape (nested objects of numbers) and
// rejects everything else with a position-tagged error.

class Parser
{
  public:
    Parser(const char *begin, const char *end) : p_(begin), end_(end) {}

    bool
    parseFile(File &out, std::string &err)
    {
        skipWs();
        if (!expect('{', err))
            return false;
        skipWs();
        if (peek() == '}')
            return next(), true;
        for (;;) {
            std::string family;
            if (!parseString(family, err) || !expectColon(err))
                return false;
            if (!parseFamily(out[family], err))
                return false;
            skipWs();
            if (peek() == ',') {
                next();
                skipWs();
                continue;
            }
            return expect('}', err);
        }
    }

  private:
    bool
    parseFamily(Family &out, std::string &err)
    {
        skipWs();
        if (!expect('{', err))
            return false;
        skipWs();
        if (peek() == '}')
            return next(), true;
        for (;;) {
            std::string row;
            if (!parseString(row, err) || !expectColon(err))
                return false;
            if (!parseEntry(out[row], err))
                return false;
            skipWs();
            if (peek() == ',') {
                next();
                skipWs();
                continue;
            }
            return expect('}', err);
        }
    }

    bool
    parseEntry(Entry &out, std::string &err)
    {
        skipWs();
        if (!expect('{', err))
            return false;
        for (;;) {
            std::string key;
            if (!parseString(key, err) || !expectColon(err))
                return false;
            // sim_cycles/commits/aborts are exact 64-bit counters and
            // must not detour through double: above 2^53 the nearest
            // representable double differs from the written integer,
            // and the baseline check would compare against a silently
            // rounded value.
            if (key == "sim_cycles") {
                if (!parseUint64(out.simCycles, err))
                    return false;
            } else if (key == "commits") {
                if (!parseUint64(out.commits, err))
                    return false;
            } else if (key == "aborts") {
                if (!parseUint64(out.aborts, err))
                    return false;
            } else if (key == "speedup") {
                if (!parseNumber(out.speedup, err))
                    return false;
            } else if (key == "p50" || key == "p99" || key == "p999") {
                uint64_t *field = key == "p50"
                                      ? &out.p50
                                      : key == "p99" ? &out.p99
                                                     : &out.p999;
                if (!parseUint64(*field, err))
                    return false;
                out.hasQuantiles = true;
            } else {
                // Forward tolerance: a newer writer may pin counters
                // this reader does not know. Any numeric value is
                // skipped; non-numbers still fail (the file is
                // machine-written, so anything else is corruption).
                double ignored = 0.0;
                if (!parseNumber(ignored, err))
                    return false;
            }
            skipWs();
            if (peek() == ',') {
                next();
                skipWs();
                continue;
            }
            return expect('}', err);
        }
    }

    bool
    parseString(std::string &out, std::string &err)
    {
        skipWs();
        if (!expect('"', err))
            return false;
        out.clear();
        while (p_ < end_ && *p_ != '"') {
            if (*p_ == '\\')
                return fail(err, "escapes are not used in baselines");
            out.push_back(*p_++);
        }
        return expect('"', err);
    }

    /**
     * Copy the number token at p_ into @p buf (NUL-terminated) without
     * reading past end_. strtod/strtoull expect a NUL-terminated
     * string, but the parse buffer is a [begin, end) range with no
     * terminator guarantee: handing p_ to them directly read past the
     * end of a buffer that stops mid-number. Returns the token length,
     * or 0 with @p err set.
     */
    size_t
    numberToken(char *buf, size_t cap, std::string &err)
    {
        size_t len = 0;
        while (p_ + len < end_ &&
               std::strchr("+-0123456789.eE", p_[len])) {
            if (len + 1 >= cap) {
                fail(err, "number token too long");
                return 0;
            }
            buf[len] = p_[len];
            len++;
        }
        if (len == 0) {
            fail(err, "expected a number");
            return 0;
        }
        buf[len] = '\0';
        return len;
    }

    bool
    parseNumber(double &out, std::string &err)
    {
        skipWs();
        char buf[64];
        const size_t len = numberToken(buf, sizeof(buf), err);
        if (len == 0)
            return false;
        char *parse_end = nullptr;
        out = std::strtod(buf, &parse_end);
        if (parse_end != buf + len)
            return fail(err, "expected a number");
        p_ += len;
        return true;
    }

    bool
    parseUint64(uint64_t &out, std::string &err)
    {
        skipWs();
        char buf[64];
        const size_t len = numberToken(buf, sizeof(buf), err);
        if (len == 0)
            return false;
        // The writer emits counters as plain decimal digits; signs,
        // fractions, and exponents mean the value is not an exact
        // uint64 round-trip, so reject rather than round.
        for (size_t i = 0; i < len; i++) {
            if (!std::isdigit(static_cast<unsigned char>(buf[i])))
                return fail(err,
                            "expected an unsigned integer counter");
        }
        errno = 0;
        char *parse_end = nullptr;
        out = std::strtoull(buf, &parse_end, 10);
        if (parse_end != buf + len)
            return fail(err, "expected an unsigned integer counter");
        if (errno == ERANGE)
            return fail(err, "integer counter overflows uint64");
        p_ += len;
        return true;
    }

    void
    skipWs()
    {
        while (p_ < end_ && std::isspace(static_cast<unsigned char>(*p_)))
            p_++;
    }

    char peek() const { return p_ < end_ ? *p_ : '\0'; }
    void next() { p_++; }

    bool
    expect(char c, std::string &err)
    {
        skipWs();
        if (peek() != c) {
            return fail(err, std::string("expected '") + c + "', got '" +
                                 (p_ < end_ ? std::string(1, *p_) : "EOF") +
                                 "'");
        }
        next();
        return true;
    }

    bool
    expectColon(std::string &err)
    {
        return expect(':', err);
    }

    bool
    fail(std::string &err, const std::string &what)
    {
        err = what;
        return false;
    }

    const char *p_;
    const char *end_;
};

inline bool
load(const std::string &path, File &out, std::string &err)
{
    std::ifstream in(path);
    if (!in) {
        err = "cannot open " + path;
        return false;
    }
    std::stringstream buf;
    buf << in.rdbuf();
    const std::string text = buf.str();
    Parser parser(text.data(), text.data() + text.size());
    if (!parser.parseFile(out, err)) {
        err = path + ": " + err;
        return false;
    }
    return true;
}

inline bool
save(const std::string &path, const File &file)
{
    std::ofstream out(path);
    if (!out)
        return false;
    char num[64];
    out << "{\n";
    bool first_family = true;
    for (const auto &[family, rows] : file) {
        if (!first_family)
            out << ",\n";
        first_family = false;
        out << "  \"" << family << "\": {\n";
        bool first_row = true;
        for (const auto &[row, e] : rows) {
            if (!first_row)
                out << ",\n";
            first_row = false;
            // %.17g round-trips the double exactly through strtod.
            std::snprintf(num, sizeof(num), "%.17g", e.speedup);
            out << "    \"" << row << "\": {\"sim_cycles\": " << e.simCycles
                << ", \"commits\": " << e.commits
                << ", \"aborts\": " << e.aborts << ", \"speedup\": " << num;
            if (e.hasQuantiles) {
                out << ", \"p50\": " << e.p50 << ", \"p99\": " << e.p99
                    << ", \"p999\": " << e.p999;
            }
            out << "}";
        }
        out << "\n  }";
    }
    out << "\n}\n";
    return bool(out);
}

/**
 * Merge this run's valid rows into @p file. A filtered run replaces
 * only the rows it produced. An unfiltered run also drops every row
 * it did not produce, so the file ends up pinning exactly the run's
 * rows. Invalid rows are never merged: they keep whatever @p file
 * pinned before.
 */
inline void
mergeRecorded(File &file, bool filtered)
{
    if (!filtered) {
        File produced;
        for (const auto &r : recordedRows()) {
            const auto fam = file.find(r.family);
            if (fam == file.end())
                continue;
            const auto row = fam->second.find(r.row);
            if (row != fam->second.end())
                produced[r.family][r.row] = row->second;
        }
        file.swap(produced);
    }
    for (const auto &r : recordedRows()) {
        if (r.valid)
            file[r.family][r.row] = r.entry;
    }
}

/**
 * Compare this run's rows against @p file. Counters are exact and
 * speedup uses a 1e-6 relative tolerance. An invalid row always
 * fails. An unfiltered run also fails on every row of @p file that
 * it did not produce (a dropped sweep point or family).
 */
inline bool
check(const File &file, bool filtered)
{
    bool ok = true;
    size_t checked = 0;
    const auto complain = [&](const Recorded &r, const char *what,
                              const std::string &got,
                              const std::string &want) {
        std::fprintf(stderr,
                     "baseline MISMATCH: [%s] %s: %s = %s, baseline says "
                     "%s\n",
                     r.family.c_str(), r.row.c_str(), what, got.c_str(),
                     want.c_str());
        ok = false;
    };
    for (const auto &r : recordedRows()) {
        if (!r.valid) {
            std::fprintf(stderr,
                         "baseline INVALID row [%s] %s: its end state "
                         "failed validation\n",
                         r.family.c_str(), r.row.c_str());
            ok = false;
            continue;
        }
        const auto fam = file.find(r.family);
        if (fam == file.end()) {
            std::fprintf(stderr,
                         "baseline MISSING family '%s' — regenerate with "
                         "--write-baseline\n",
                         r.family.c_str());
            ok = false;
            continue;
        }
        const auto row = fam->second.find(r.row);
        if (row == fam->second.end()) {
            std::fprintf(stderr,
                         "baseline MISSING row [%s] %s — regenerate with "
                         "--write-baseline\n",
                         r.family.c_str(), r.row.c_str());
            ok = false;
            continue;
        }
        const Entry &want = row->second;
        const Entry &got = r.entry;
        checked++;
        if (got.simCycles != want.simCycles)
            complain(r, "sim_cycles", std::to_string(got.simCycles),
                     std::to_string(want.simCycles));
        if (got.commits != want.commits)
            complain(r, "commits", std::to_string(got.commits),
                     std::to_string(want.commits));
        if (got.aborts != want.aborts)
            complain(r, "aborts", std::to_string(got.aborts),
                     std::to_string(want.aborts));
        // Quantiles compare exactly, but only when the baseline row
        // pins them: a pre-quantile baselines.json still checks
        // cleanly against a quantile-reporting bench (regenerate to
        // start pinning). A baseline that pins them against a row
        // that stopped reporting them is a real regression and fails.
        if (want.hasQuantiles) {
            if (!got.hasQuantiles) {
                complain(r, "quantiles", "absent", "present");
            } else {
                if (got.p50 != want.p50)
                    complain(r, "p50", std::to_string(got.p50),
                             std::to_string(want.p50));
                if (got.p99 != want.p99)
                    complain(r, "p99", std::to_string(got.p99),
                             std::to_string(want.p99));
                if (got.p999 != want.p999)
                    complain(r, "p999", std::to_string(got.p999),
                             std::to_string(want.p999));
            }
        }
        const double tol =
            1e-6 * std::max(std::fabs(got.speedup),
                            std::fabs(want.speedup));
        if (std::fabs(got.speedup - want.speedup) > tol)
            complain(r, "speedup", std::to_string(got.speedup),
                     std::to_string(want.speedup));
    }
    if (!filtered) {
        File produced;
        for (const auto &r : recordedRows())
            produced[r.family][r.row] = r.entry;
        for (const auto &[family, rows] : file) {
            const auto fam = produced.find(family);
            for (const auto &entry : rows) {
                if (fam != produced.end() && fam->second.count(entry.first))
                    continue;
                std::fprintf(stderr,
                             "baseline UNCHECKED row [%s] %s: pinned, "
                             "but no family produced it\n",
                             family.c_str(), entry.first.c_str());
                ok = false;
            }
        }
    }
    if (ok) {
        std::fprintf(stderr, "baseline check PASSED: %zu rows exact\n",
                     checked);
    }
    return ok;
}

} // namespace baseline
} // namespace benchutil
} // namespace commtm

#endif // COMMTM_BENCH_BASELINE_IO_H
