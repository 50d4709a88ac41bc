/**
 * @file
 * commtm_perf: the host-and-simulated performance benchmark program
 * (bench/perf/README.md). One single-threaded process runs one
 * workload:
 *
 *   commtm_perf --workload=<name> [--seed=<n>] [--seconds=<s>]
 *               [--trace=<path>] [--json=<path>] [--smoke]
 *
 * run from the repository root (it reads bench/baselines.json).
 *
 * It repeats the workload's round of rows for --seconds of host time
 * (at least kMinRounds times), reports each row at its fastest (the
 * median round for set-up time), prints one
 * "<workload> <metric> <value> <unit>" line per metric, and writes the
 * same metrics as JSON. With --trace it first runs the layer probes,
 * then alternates untraced and traced rounds within the same budget,
 * adds the per-layer metrics, and writes the traced rounds' spans to
 * <path> as Chrome trace-event JSON. It exits 1 when a row fails its
 * check or two rounds disagree on the simulated digest.
 */

#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <numeric>
#include <string>
#include <vector>

#include "perf.h"

namespace commtm {
namespace perf {
namespace {

/** Untraced (and, with --trace, traced) rounds every run measures,
 *  however long they take. */
constexpr int kMinRounds = 3;

struct Workload {
    const char *name;
    void (*run)(Context &);
    bool pinned; //!< rows carry bench/baselines.json entries
};

const Workload kWorkloads[] = {
    {"contention", runContention, true},
    {"commutative", runCommutative, false},
    {"stamp", runStamp, true},
    {"service", runService, false},
    {"replay", runReplay, false},
};

struct Options {
    std::string workload;
    uint64_t seed = kDefaultSeed;
    double seconds = 10;
    std::string tracePath;
    std::string jsonPath;
    bool smoke = false;
};

bool
parseArgs(int argc, char **argv, Options &opt)
{
    for (int i = 1; i < argc; i++) {
        const std::string arg = argv[i];
        const size_t eq = arg.find('=');
        const std::string key = arg.substr(0, eq);
        const std::string value =
            eq == std::string::npos ? "" : arg.substr(eq + 1);
        if (key == "--workload") {
            opt.workload = value;
        } else if (key == "--seed") {
            char *end = nullptr;
            opt.seed = std::strtoull(value.c_str(), &end, 0);
            if (value.empty() || *end != '\0')
                return false;
        } else if (key == "--seconds") {
            char *end = nullptr;
            opt.seconds = std::strtod(value.c_str(), &end);
            if (value.empty() || *end != '\0' || !(opt.seconds >= 0))
                return false;
        } else if (key == "--trace") {
            opt.tracePath = value;
        } else if (key == "--json") {
            opt.jsonPath = value;
        } else if (key == "--smoke") {
            opt.smoke = true;
        } else {
            return false;
        }
    }
    return !opt.workload.empty();
}

double
ratio(double num, double den)
{
    return den != 0 ? num / den : 0;
}

/** Geometric mean of Baseline/CommTM cycles over complete pairs. */
double
speedup(const RoundStats &r)
{
    double logs = 0;
    int n = 0;
    for (const auto &[key, cycles] : r.pairs) {
        if (cycles.first && cycles.second) {
            logs += std::log(double(cycles.first) / double(cycles.second));
            n++;
        }
    }
    return n ? std::exp(logs / n) : 0;
}

/** Highest Poisson load at which @p mode met both tail limits. */
double
capacityPct(const RoundStats &r, SystemMode mode)
{
    uint32_t best = 0;
    for (const auto &[key, ok] : r.capacity) {
        if (key.first == int(mode) && ok && key.second > best)
            best = key.second;
    }
    return best;
}

struct Metric {
    std::string name;
    double value;
    const char *unit;
};

/** The end-to-end metrics (BENCHMARK.json "end_to_end"). */
void
endToEnd(std::vector<Metric> &out, const RoundStats &r, double wall,
         double setup)
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    const double accesses =
        double(r.machine.l1Hits + r.machine.l1Misses);
    out.push_back({"wall_s", wall, "s"});
    out.push_back({"setup_s", setup, "s"});
    out.push_back({"peak_rss_mb", double(ru.ru_maxrss) / 1024.0, "MB"});
    out.push_back({"sim_macc_per_s", ratio(accesses / 1e6, wall), "M/s"});
    out.push_back({"sim_Mcycles", double(r.cycles) / 1e6, "Mcycles"});
    out.push_back({"commit_frac",
                   ratio(double(r.threads.txCommitted),
                         double(r.threads.txStarted)),
                   "ratio"});
}

/** The simulated per-layer metrics, from one round's counters. */
void
simulatedLayers(std::vector<Metric> &out, const RoundStats &r,
                double check_fail_frac)
{
    const ThreadStats &t = r.threads;
    const MachineStats &m = r.machine;
    const double cyc = double(t.totalCycles());
    out.push_back({"rt.cyc_nontx_frac", ratio(t.nonTxCycles, cyc),
                   "ratio"});
    out.push_back({"rt.cyc_committed_frac",
                   ratio(t.txCommittedCycles, cyc), "ratio"});
    out.push_back({"rt.cyc_wasted_frac", ratio(t.txAbortedCycles, cyc),
                   "ratio"});
    out.push_back({"htm.attempts", double(t.txStarted), "count"});
    out.push_back({"htm.commits", double(t.txCommitted), "count"});
    out.push_back({"htm.aborts", double(t.txAborted), "count"});
    static const char *const kCauses[] = {
        "raw",      "war",        "gather",        "waw",     "labeled",
        "capacity", "u_eviction", "self_demotion", "explicit"};
    static_assert(sizeof(kCauses) / sizeof(kCauses[0]) ==
                  size_t(AbortCause::NumCauses));
    for (size_t c = 0; c < t.abortsByCause.size(); c++) {
        out.push_back({std::string("htm.aborts.") + kCauses[c],
                       double(t.abortsByCause[c]), "count"});
    }
    static const char *const kBuckets[] = {"raw", "war", "gather",
                                           "other"};
    for (size_t b = 0; b < t.wastedByCause.size(); b++) {
        out.push_back({std::string("htm.wasted.") + kBuckets[b] + "_frac",
                       ratio(t.wastedByCause[b], t.txAbortedCycles),
                       "ratio"});
    }
    const auto get = [&](GetType g) { return double(m.l3Gets[size_t(g)]); };
    out.push_back({"mem.accesses", double(m.l1Hits + m.l1Misses),
                   "count"});
    out.push_back({"mem.gets", get(GetType::GETS), "count"});
    out.push_back({"mem.getx", get(GetType::GETX), "count"});
    out.push_back({"mem.getu", get(GetType::GETU), "count"});
    out.push_back({"mem.invalidations", double(m.invalidations), "count"});
    out.push_back({"mem.downgrades", double(m.downgrades), "count"});
    out.push_back({"mem.nacks", double(m.nacks), "count"});
    out.push_back({"mem.writebacks", double(m.writebacks), "count"});
    out.push_back({"mem.l1_hit_frac",
                   ratio(m.l1Hits, double(m.l1Hits + m.l1Misses)),
                   "ratio"});
    out.push_back({"mem.l2_hit_frac",
                   ratio(m.l2Hits, double(m.l2Hits + m.l2Misses)),
                   "ratio"});
    out.push_back({"mem.l3_hit_frac",
                   ratio(m.l3Hits, double(m.l3Hits + m.l3Misses)),
                   "ratio"});
    out.push_back({"commtm.labeled_frac",
                   ratio(t.labeledInstrs, t.instrs), "ratio"});
    out.push_back({"commtm.reductions", double(m.reductions), "count"});
    out.push_back({"commtm.lines_merged",
                   double(m.reductionLinesMerged), "count"});
    out.push_back({"commtm.gathers", double(m.gathers), "count"});
    out.push_back({"commtm.splits", double(m.splits), "count"});
    out.push_back({"commtm.u_writebacks", double(m.uWritebacks),
                   "count"});
    out.push_back({"commtm.u_forwards", double(m.uForwards), "count"});

    const ServiceStats &s = r.service;
    out.push_back({"svc.arrivals", double(r.arrivals), "count"});
    out.push_back({"svc.admitted", double(s.admitted), "count"});
    out.push_back({"svc.dropped", double(s.dropped), "count"});
    out.push_back({"svc.completed", double(s.completed), "count"});
    out.push_back({"svc.samples",
                   double(r.commtmHist.totalCount() +
                          r.baselineHist.totalCount()),
                   "count"});
    out.push_back({"svc.qdepth_max", double(s.maxDepth), "count"});
    out.push_back({"trace.bytes", double(r.traceBytes), "bytes"});
    out.push_back({"trace.records", double(r.traceRecords), "count"});
    out.push_back({"trace.commits", double(r.traceCommits), "count"});

    out.push_back({"commtm_speedup", speedup(r), "x"});
    out.push_back({"commtm.p50_cyc", double(r.commtmHist.p50()),
                   "cycles"});
    out.push_back({"commtm.p99_cyc", double(r.commtmHist.p99()),
                   "cycles"});
    out.push_back({"commtm.p999_cyc", double(r.commtmHist.p999()),
                   "cycles"});
    out.push_back({"commtm.samples", double(r.commtmHist.totalCount()),
                   "count"});
    out.push_back({"baseline.p99_cyc", double(r.baselineHist.p99()),
                   "cycles"});
    out.push_back({"baseline.samples",
                   double(r.baselineHist.totalCount()), "count"});
    out.push_back({"drop_frac", ratio(s.dropped, r.arrivals), "ratio"});
    out.push_back({"commtm.capacity_pct",
                   capacityPct(r, SystemMode::CommTm), "%"});
    out.push_back({"baseline.capacity_pct",
                   capacityPct(r, SystemMode::BaselineHtm), "%"});
    out.push_back({"check_fail_frac", check_fail_frac, "ratio"});
}

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += c;
    }
    return out;
}

/** Chrome trace-event JSON (Perfetto / chrome://tracing). */
bool
writeTrace(const std::string &path, const Recorder &rec)
{
    std::ofstream out(path);
    out << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
    const std::vector<Span> &spans = rec.spans();
    const std::vector<std::string> &rows = rec.rowLabels();
    char buf[160];
    for (size_t i = 0; i < spans.size(); i++) {
        const Span &s = spans[i];
        std::snprintf(buf, sizeof(buf),
                      "{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                      "\"tid\": 1, \"ts\": %.3f, \"dur\": %.3f, ",
                      s.name, s.start * 1e6, (s.end - s.start) * 1e6);
        out << buf << "\"args\": {\"id\": " << i
            << ", \"parent\": " << s.parent << ", \"row\": " << s.row;
        if (s.row < rows.size())
            out << ", \"label\": \"" << jsonEscape(rows[s.row]) << "\"";
        out << "}}" << (i + 1 < spans.size() ? ",\n" : "\n");
    }
    out << "]}\n";
    return bool(out);
}

int
run(const Options &opt)
{
    const Workload *workload = nullptr;
    for (const Workload &w : kWorkloads) {
        if (opt.workload == w.name)
            workload = &w;
    }
    if (!workload) {
        std::fprintf(stderr, "unknown workload '%s'\n",
                     opt.workload.c_str());
        return 2;
    }
    // Pinned rows reproduce their baseline entries only with the figure
    // inputs and the library default seeds.
    benchutil::baseline::File baselines;
    const bool cross_check =
        workload->pinned && !opt.smoke && opt.seed == kDefaultSeed;
    if (cross_check) {
        std::string err;
        if (!benchutil::baseline::load("bench/baselines.json", baselines,
                                       err)) {
            std::fprintf(stderr, "%s\n", err.c_str());
            return 2;
        }
    }

    const bool tracing = !opt.tracePath.empty();
    const Clock::time_point start = Clock::now();
    // The probes and the observer comparison run first, inside the
    // same budget, so a traced run takes as long as an untraced one.
    std::map<std::string, double> probes;
    double obs_overhead = 0;
    if (tracing) {
        probes = runProbes(workloadGeometry(opt.workload), opt.smoke);
        if (opt.workload == "replay")
            obs_overhead = replayObserverOverhead(opt.smoke);
    }

    Recorder rec;
    std::vector<double> wall;
    std::vector<double> setup;
    std::vector<double> traced_wall;
    // Each row's fastest wall seconds over the untraced (and traced)
    // rounds: every round runs the same rows in the same order.
    std::vector<double> row_best;
    std::vector<double> traced_row_best;
    // Per traced round: host seconds of each call name that occurred.
    std::map<std::string, std::vector<double>> calls;
    RoundStats first;
    uint32_t rows = 0;
    uint32_t failed = 0;
    bool stable = true;
    double longest = 0;
    for (int round = 0;; round++) {
        const bool traced = tracing && round % 2 == 1;
        const Clock::time_point round_start = Clock::now();
        rec.startRound(traced);
        RoundStats stats;
        Context ctx{rec, stats, opt.seed, opt.smoke,
                    cross_check ? &baselines : nullptr};
        workload->run(ctx);
        rows += stats.rows;
        failed += stats.failed;
        if (round == 0) {
            first = stats;
        } else if (stats.digest != first.digest) {
            std::fprintf(stderr, "round %d: simulated digest differs "
                         "from round 0\n", round);
            stable = false;
        }
        if (traced) {
            traced_wall.push_back(rec.wallS());
            keepFastest(traced_row_best, rec.rowWallS());
            for (const auto &[name, secs] : rec.callTotals())
                calls[name].push_back(secs);
        } else {
            wall.push_back(rec.wallS());
            keepFastest(row_best, rec.rowWallS());
            setup.push_back(rec.setupS());
        }
        const Clock::time_point now = Clock::now();
        longest = std::max(
            longest,
            std::chrono::duration<double>(now - round_start).count());
        const int min_rounds = opt.smoke ? 1 : kMinRounds;
        const bool enough =
            int(wall.size()) >= min_rounds &&
            (!tracing || int(traced_wall.size()) >= min_rounds);
        // Stop when another round would overrun the budget.
        const double elapsed =
            std::chrono::duration<double>(now - start).count();
        if (enough && elapsed + longest > opt.seconds)
            break;
    }

    // Every row does identical work in every round, so other processes
    // can only add time to it: a row's fastest time is the cost of its
    // work, and wall_s sums them. Set-up time reports the median round.
    const double wall_s =
        std::accumulate(row_best.begin(), row_best.end(), 0.0);
    std::vector<Metric> metrics;
    endToEnd(metrics, first, wall_s, median(setup));
    if (tracing) {
        simulatedLayers(metrics, first, ratio(failed, rows));
        // Only the calls this workload makes: a span that never ran has
        // no time to report.
        for (const auto &[name, values] : calls)
            metrics.push_back({name + "_s", fastest(values), "s"});
        if (opt.workload == "replay")
            metrics.push_back({"obs.overhead_frac", obs_overhead, "ratio"});
        const double accesses =
            double(first.machine.l1Hits + first.machine.l1Misses);
        metrics.push_back(
            {"host.ns_per_access", ratio(wall_s * 1e9, accesses), "ns"});
        const double traced_wall_s = std::accumulate(
            traced_row_best.begin(), traced_row_best.end(), 0.0);
        metrics.push_back({"trace_overhead_frac",
                           ratio(traced_wall_s, wall_s) - 1.0, "ratio"});
        for (const auto &[name, ns] : probes)
            metrics.push_back({name, ns, "ns"});
        if (!writeTrace(opt.tracePath, rec)) {
            std::fprintf(stderr, "cannot write %s\n",
                         opt.tracePath.c_str());
            return 2;
        }
    }

    const bool correct = failed == 0 && stable;
    char digest[32];
    std::snprintf(digest, sizeof(digest), "%016" PRIx64, first.digest);
    const int rounds = int(wall.size() + traced_wall.size());
    std::printf("%s rounds %d count\n", opt.workload.c_str(), rounds);
    std::printf("%s sim_digest %s hex\n", opt.workload.c_str(), digest);
    for (const Metric &m : metrics) {
        std::printf("%s %s %.9g %s\n", opt.workload.c_str(),
                    m.name.c_str(), m.value, m.unit);
    }
    if (!opt.jsonPath.empty()) {
        std::ofstream out(opt.jsonPath);
        out << "{\"workload\": \"" << opt.workload
            << "\", \"seed\": " << opt.seed << ", \"rounds\": " << rounds
            << ", \"attempted\": " << rows << ", \"failed\": " << failed
            << ", \"correct\": " << (correct ? "true" : "false")
            << ", \"sim_digest\": \"" << digest << "\"";
        char num[64];
        // Per-round host times, so run-to-run spread can be traced to
        // single rounds.
        for (const auto &[key, values] :
             {std::pair{"round_wall_s", &wall},
              std::pair{"round_setup_s", &setup}}) {
            out << ", \"" << key << "\": [";
            for (size_t i = 0; i < values->size(); i++) {
                std::snprintf(num, sizeof(num), "%.6g", (*values)[i]);
                out << (i ? ", " : "") << num;
            }
            out << "]";
        }
        out << ", \"metrics\": {";
        for (size_t i = 0; i < metrics.size(); i++) {
            std::snprintf(num, sizeof(num), "%.17g", metrics[i].value);
            out << (i ? ", " : "") << "\"" << metrics[i].name
                << "\": {\"value\": " << num << ", \"unit\": \""
                << metrics[i].unit << "\"}";
        }
        out << "}}\n";
        if (!out) {
            std::fprintf(stderr, "cannot write %s\n",
                         opt.jsonPath.c_str());
            return 2;
        }
    }
    return correct ? 0 : 1;
}

} // namespace
} // namespace perf
} // namespace commtm

int
main(int argc, char **argv)
{
    commtm::perf::Options opt;
    if (!commtm::perf::parseArgs(argc, argv, opt)) {
        std::fprintf(stderr,
                     "usage: %s --workload=<contention|commutative|stamp|"
                     "service|replay> [--seed=<n>] [--seconds=<s>] "
                     "[--trace=<path>] [--json=<path>] [--smoke]\n",
                     argv[0]);
        return 2;
    }
    return commtm::perf::run(opt);
}
