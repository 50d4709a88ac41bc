/**
 * @file
 * commtm_bench: the one bench program. It runs the families the bench
 * sources register (bench_util.h), prints one line of exact counters
 * per row, and checks or rewrites the checked-in exact-counter
 * baselines (baseline_io.h). docs/BENCHMARKS.md documents the flags
 * and the row-line format.
 *
 *   commtm_bench [--filter=REGEX] [--check-baseline[=PATH]]
 *                [--write-baseline[=PATH]]
 *   commtm_bench --trace-info FILE [--dump=N]
 *
 * --filter selects the rows whose "family label" the regex matches
 * (ECMAScript, searched anywhere in the string). Each selected
 * family's first row, its speedup reference, always runs too. The
 * exit status is nonzero if any row fails validation, the baseline
 * check fails, or the trace is malformed.
 */

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <regex>
#include <string>
#include <vector>

#include "baseline_io.h"
#include "bench_util.h"
#include "trace/trace_reader.h"

#ifndef COMMTM_BASELINE_FILE
#define COMMTM_BASELINE_FILE "bench/baselines.json"
#endif

namespace commtm {
namespace {

namespace baseline = benchutil::baseline;

constexpr const char *kUsage =
    "usage: commtm_bench [--filter=REGEX] [--check-baseline[=PATH]]\n"
    "                    [--write-baseline[=PATH]]\n"
    "       commtm_bench --trace-info FILE [--dump=N]\n";

struct Options {
    bool filtered = false;
    std::regex filter;
    bool check = false;
    bool write = false;
    std::string baselinePath = COMMTM_BASELINE_FILE;
    std::string traceInfo;
    uint64_t dump = 0;
};

bool
parseArgs(int argc, char **argv, Options &opt)
{
    for (int i = 1; i < argc; i++) {
        const std::string arg = argv[i];
        const size_t eq = arg.find('=');
        const std::string name = arg.substr(0, eq);
        const bool has_value = eq != std::string::npos;
        const std::string value = has_value ? arg.substr(eq + 1) : "";
        if (name == "--check-baseline" || name == "--write-baseline") {
            (name == "--check-baseline" ? opt.check : opt.write) = true;
            if (has_value)
                opt.baselinePath = value;
        } else if (name == "--filter" && has_value) {
            try {
                opt.filter = std::regex(value);
            } catch (const std::regex_error &e) {
                std::fprintf(stderr, "bad --filter regex '%s': %s\n",
                             value.c_str(), e.what());
                return false;
            }
            opt.filtered = true;
        } else if (arg == "--trace-info" && i + 1 < argc) {
            opt.traceInfo = argv[++i];
        } else if (name == "--dump" && has_value && !value.empty() &&
                   value.find_first_not_of("0123456789") ==
                       std::string::npos) {
            opt.dump = std::strtoull(value.c_str(), nullptr, 10);
        } else {
            std::fprintf(stderr, "unknown argument '%s'\n%s",
                         arg.c_str(), kUsage);
            return false;
        }
    }
    return true;
}

/** The one emission point: "family label | counter=value ...". Every
 *  integer prints exactly; percentages and fractions are derived. */
void
printRow(const std::string &name, const benchutil::RowResult &r,
         double speedup)
{
    const ThreadStats agg = r.stats.aggregateThreads();
    const MachineStats &ms = r.stats.machine;
    std::string line = name + " |";
    const auto count = [&](const std::string &key, uint64_t v) {
        line += " " + key + "=" + std::to_string(v);
    };
    const auto real = [&](const char *key, const char *fmt, double v) {
        char buf[64];
        std::snprintf(buf, sizeof(buf), fmt, v);
        line += std::string(" ") + key + "=" + buf;
    };
    const auto pct = [&](const char *key, uint64_t part, uint64_t whole) {
        real(key, "%.1f",
             whole ? 100.0 * double(part) / double(whole) : 0.0);
    };
    const auto waste = [&](const char *key, WasteBucket b) {
        pct(key, agg.wastedByCause[size_t(b)], agg.txAbortedCycles);
    };
    count("sim_cycles", r.stats.runtimeCycles());
    real("speedup", "%.6g", speedup);
    count("commits", agg.txCommitted);
    count("aborts", agg.txAborted);
    // Fig. 17 core cycles and Fig. 18 wasted cycles by cause.
    pct("cyc_nonTx%", agg.nonTxCycles, agg.totalCycles());
    pct("cyc_committed%", agg.txCommittedCycles, agg.totalCycles());
    pct("cyc_wasted%", agg.txAbortedCycles, agg.totalCycles());
    waste("waste_RaW%", WasteBucket::ReadAfterWrite);
    waste("waste_WaR%", WasteBucket::WriteAfterRead);
    waste("waste_gather%", WasteBucket::GatherAfterLabeled);
    waste("waste_other%", WasteBucket::Others);
    // Fig. 19 L2 -> L3 requests.
    count("GETS", ms.l3Gets[size_t(GetType::GETS)]);
    count("GETX", ms.l3Gets[size_t(GetType::GETX)]);
    count("GETU", ms.l3Gets[size_t(GetType::GETU)]);
    // Table II.
    real("labeled_frac", "%.4f",
         agg.instrs ? double(agg.labeledInstrs) / double(agg.instrs)
                    : 0.0);
    count("reductions", ms.reductions);
    count("gathers", ms.gathers);
    count("splits", ms.splits);
    if (r.hasQuantiles) {
        count("p50_cyc", r.p50);
        count("p99_cyc", r.p99);
        count("p999_cyc", r.p999);
    }
    for (const auto &[key, value] : r.extra)
        count(key, value);
    if (!r.valid)
        line += " INVALID";
    std::printf("%s\n", line.c_str());
    std::fflush(stdout);
}

/** Runs the selected rows of every family in name order, printing
 *  each and recording it for the baseline modes. */
void
runFamilies(const Options &opt)
{
    std::vector<benchutil::Family> &families = benchutil::families();
    std::sort(families.begin(), families.end(),
              [](const benchutil::Family &a, const benchutil::Family &b) {
                  return a.name < b.name;
              });
    for (const benchutil::Family &family : families) {
        std::vector<const benchutil::Row *> rows;
        for (const benchutil::Row &row : family.rows) {
            if (!opt.filtered ||
                std::regex_search(family.name + " " + row.label,
                                  opt.filter))
                rows.push_back(&row);
        }
        if (rows.empty())
            continue;
        if (rows.front() != &family.rows.front())
            rows.insert(rows.begin(), &family.rows.front());
        double reference = 0;
        for (const benchutil::Row *row : rows) {
            const benchutil::RowResult r = row->run();
            const ThreadStats agg = r.stats.aggregateThreads();
            const Cycle cycles = r.stats.runtimeCycles();
            if (row == rows.front())
                reference = double(cycles);
            const double speedup = cycles ? reference / double(cycles) : 0;
            printRow(family.name + " " + row->label, r, speedup);
            baseline::recordedRows().push_back(
                {family.name,
                 row->label,
                 {cycles, agg.txCommitted, agg.txAborted, speedup,
                  r.hasQuantiles, r.p50, r.p99, r.p999},
                 r.valid});
        }
    }
}

const char *const kOpNames[] = {"Compute",     "Load",         "Store",
                                "LabeledLoad", "LabeledStore", "Gather",
                                "TxBegin",     "TxEnd",        "Barrier",
                                "Annotation"};

std::string
formatRecord(const TraceRecord &rec)
{
    std::string out = kOpNames[size_t(rec.kind)];
    switch (rec.kind) {
      case TraceOpKind::Compute:
        return out + " instrs=" + std::to_string(rec.a);
      case TraceOpKind::Annotation:
        return out + " code=" + std::to_string(rec.a) +
               " value=" + std::to_string(rec.b);
      case TraceOpKind::TxBegin:
      case TraceOpKind::TxEnd:
      case TraceOpKind::Barrier:
        return out;
      default:
        break;
    }
    char buf[64];
    std::snprintf(buf, sizeof(buf), " addr=0x%" PRIx64 " size=%u",
                  uint64_t(rec.addr), rec.size);
    out += buf;
    if (isLabeled(memOpOf(rec.kind))) {
        out += " label=" + (rec.label == kNoLabel
                                ? std::string("-")
                                : std::to_string(unsigned(rec.label)));
    }
    if (!rec.data.empty()) {
        out += " data=";
        for (const uint8_t byte : rec.data) {
            std::snprintf(buf, sizeof(buf), "%02x", byte);
            out += buf;
        }
    }
    return out;
}

/** Validates a serialized capture with TraceReader::parse and prints
 *  its header, per-thread record counts, an opcode histogram, and
 *  the first @p dump records of each thread. */
int
traceInfo(const std::string &path, uint64_t dump)
{
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        std::fprintf(stderr, "%s: cannot open\n", path.c_str());
        return 1;
    }
    const std::vector<uint8_t> buf((std::istreambuf_iterator<char>(in)),
                                   std::istreambuf_iterator<char>());
    Trace trace;
    std::string err;
    if (!TraceReader::parse(buf, &trace, &err)) {
        std::fprintf(stderr, "%s: INVALID: %s\n", path.c_str(),
                     err.c_str());
        return 1;
    }
    std::printf("%s: CTMTRACE v%u, %u threads, %zu commits, %zu bytes, "
                "config fingerprint 0x%016" PRIx64 "\n",
                path.c_str(), trace.version, trace.numThreads(),
                trace.commitOrder.size(), buf.size(),
                trace.configFingerprint);
    std::printf("  %6s %10s %8s\n", "thread", "records", "txs");
    uint64_t histogram[std::size(kOpNames)] = {};
    uint32_t idle = 0;
    for (uint32_t t = 0; t < trace.numThreads(); t++) {
        const std::vector<TraceRecord> &records = trace.threads[t];
        if (records.empty()) {
            idle++;
            continue;
        }
        uint64_t txs = 0;
        for (const TraceRecord &rec : records) {
            histogram[size_t(rec.kind)]++;
            txs += rec.kind == TraceOpKind::TxBegin;
        }
        std::printf("  %6u %10zu %8" PRIu64 "\n", t, records.size(), txs);
    }
    if (idle)
        std::printf("  (%u idle threads with empty streams)\n", idle);
    std::printf("  opcode histogram:");
    for (size_t k = 0; k < std::size(kOpNames); k++) {
        if (histogram[k])
            std::printf(" %s=%" PRIu64, kOpNames[k], histogram[k]);
    }
    std::printf("\n");
    for (uint32_t t = 0; t < trace.numThreads(); t++) {
        const std::vector<TraceRecord> &records = trace.threads[t];
        for (size_t i = 0; i < records.size() && i < dump; i++) {
            std::printf("  thread %u record %zu: %s\n", t, i,
                        formatRecord(records[i]).c_str());
        }
    }
    return 0;
}

int
run(const Options &opt)
{
    if (!opt.traceInfo.empty())
        return traceInfo(opt.traceInfo, opt.dump);
    // Load the baseline file before running any row: a file that does
    // not parse fails both modes at once and is never overwritten.
    // Only --write-baseline accepts a missing file (it creates one).
    baseline::File file;
    if (opt.check || opt.write) {
        std::string err;
        const bool create =
            opt.write && !std::filesystem::exists(opt.baselinePath);
        if (!create && !baseline::load(opt.baselinePath, file, err)) {
            std::fprintf(stderr, "baseline FAILED: %s\n", err.c_str());
            return 1;
        }
    }
    runFamilies(opt);
    if (baseline::recordedRows().empty()) {
        std::fprintf(stderr, "no row matches --filter\n");
        return 1;
    }
    int status = 0;
    size_t invalid = 0;
    for (const baseline::Recorded &r : baseline::recordedRows())
        invalid += !r.valid;
    if (invalid) {
        std::fprintf(stderr, "%zu rows FAILED validation\n", invalid);
        status = 1;
    }
    if (opt.write) {
        baseline::mergeRecorded(file, opt.filtered);
        if (!baseline::save(opt.baselinePath, file)) {
            std::fprintf(stderr, "cannot write baseline file %s\n",
                         opt.baselinePath.c_str());
            return 1;
        }
        size_t rows = 0;
        for (const auto &family : file)
            rows += family.second.size();
        std::fprintf(stderr, "baseline updated: %s (%zu rows)\n",
                     opt.baselinePath.c_str(), rows);
    }
    if (opt.check && !baseline::check(file, opt.filtered))
        status = 1;
    return status;
}

} // namespace
} // namespace commtm

int
main(int argc, char **argv)
{
    commtm::Options opt;
    if (!commtm::parseArgs(argc, argv, opt))
        return 2;
    return commtm::run(opt);
}
