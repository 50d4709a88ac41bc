/**
 * @file
 * Shared types of the commtm_perf benchmark program (bench/perf/
 * README.md): the host-time recorder with its optional span trace,
 * the per-round accumulator of simulated results, and the context the
 * five workloads run their rows against.
 *
 * The program reaches the simulator only through public entry points
 * (Machine, MemorySystem::access, HtmManager, Fiber, the src/apps and
 * src/lib entry points, the frontends, the trace writer/reader, and
 * Machine::stats()); every span it records wraps one such call.
 */

#ifndef COMMTM_BENCH_PERF_PERF_H
#define COMMTM_BENCH_PERF_PERF_H

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "baseline_io.h"
#include "rt/open_loop.h"
#include "sim/config.h"
#include "sim/latency_hist.h"
#include "sim/stats.h"

namespace commtm {
namespace perf {

using Clock = std::chrono::steady_clock;

/** The benchmark seed under which every pinned row must reproduce its
 *  bench/baselines.json entry: it keeps every library default seed. */
constexpr uint64_t kDefaultSeed = 0x5eed;

/** Which host-time total a timed call counts toward. */
enum class Charge { Setup, Wall, None };

/** One recorded span of a traced round. */
struct Span {
    const char *name;
    double start; //!< seconds since the recorder's epoch
    double end;
    int32_t parent; //!< index of the enclosing span, -1 at top level
    uint32_t row;   //!< index into Recorder::rowLabels()
};

/**
 * Times the program's calls into the simulator. Every call is charged
 * to the round's setup or wall total; in a traced round it is also
 * kept as a span (in memory, written out when the run ends).
 */
class Recorder
{
  public:
    /** RAII scope of one timed call (or one row). */
    class Scope
    {
      public:
        Scope(Recorder &rec, const char *name, Charge charge);
        ~Scope();
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        Recorder &rec_;
        const char *name_;
        Charge charge_;
        double start_;
        int32_t span_ = -1;
        int32_t parent_ = -1;
    };

    Recorder() : epoch_(Clock::now()) {}

    /** Run @p fn as the call named @p name, charged to @p charge. */
    template <typename Fn>
    auto
    time(const char *name, Charge charge, Fn &&fn)
    {
        Scope scope(*this, name, charge);
        return fn();
    }

    /** Start a new row; the spans that follow carry its label. */
    void beginRow(std::string label);

    /** Clear the round totals; @p tracing selects span recording. */
    void startRound(bool tracing);

    double setupS() const { return setup_; }
    double wallS() const { return wall_; }
    /** Wall seconds of each row of this round, in row order. */
    const std::vector<double> &rowWallS() const { return rowWall_; }
    /** Per-call-name host seconds of this round (traced rounds). */
    const std::map<std::string, double> &callTotals() const
    {
        return callTotals_;
    }

    const std::vector<Span> &spans() const { return spans_; }
    const std::vector<std::string> &rowLabels() const { return rows_; }

    double now() const;

  private:
    Clock::time_point epoch_;
    bool tracing_ = false;
    double setup_ = 0;
    double wall_ = 0;
    std::vector<double> rowWall_;
    std::map<std::string, double> callTotals_;
    std::vector<Span> spans_;
    std::vector<std::string> rows_;
    int32_t open_ = -1; //!< innermost open span
};

/** Seeds of one row. Under the default benchmark seed every row keeps
 *  its library defaults (so pinned rows match bench/baselines.json);
 *  any other seed re-derives all of them from the benchmark seed. */
struct RowSeeds {
    bool pinned = true;
    uint64_t machine = 0; //!< MachineConfig::seed
    uint64_t app = 0;     //!< the app config's input seed
    uint64_t stream = 0;  //!< OpenLoopConfig::seed
};

/** Simulated results of one round, accumulated row by row. */
struct RoundStats {
    ThreadStats threads;   //!< summed over every row's threads
    MachineStats machine;  //!< summed over rows
    uint64_t cycles = 0;   //!< sum of row runtimeCycles()
    uint64_t digest = 0xcbf29ce484222325ull; //!< FNV-1a, see addRow
    uint32_t rows = 0;
    uint32_t failed = 0; //!< rows failing validation or the cross-check

    /** Baseline-vs-CommTM pairs: key -> {baseline, commtm} cycles. */
    std::map<std::string, std::pair<uint64_t, uint64_t>> pairs;

    // Open-loop service rows.
    LatencyHistogram commtmHist;
    LatencyHistogram baselineHist;
    ServiceStats service;
    uint64_t arrivals = 0;
    /** (system, load%) -> every eager 128t row met both limits. */
    std::map<std::pair<int, uint32_t>, bool> capacity;

    // Trace capture (replay workload only).
    uint64_t traceBytes = 0;
    uint64_t traceRecords = 0;
    uint64_t traceCommits = 0;

    /** Fold one row's exact counters (plus row-specific @p extra
     *  values) into the totals and the digest. */
    void addRow(const std::string &label, const StatsSnapshot &stats,
                bool ok, const std::vector<uint64_t> &extra = {});
    void fold(uint64_t value);
};

/** What a workload's rows run against. */
struct Context {
    Recorder &rec;
    RoundStats &round;
    uint64_t seed;
    /** Reduced op counts (run.py --smoke); no baseline cross-check. */
    bool smoke;
    /** Pinned rows to cross-check, or nullptr. */
    const benchutil::baseline::File *baselines;
    uint32_t nextRow = 0;

    /** Seeds for the next row (rows draw them in a fixed order). */
    RowSeeds rowSeeds();
    /** @p ops scaled down in smoke runs (never below @p floor). */
    uint64_t ops(uint64_t ops, uint64_t floor = 256) const;
    /** Compare a pinned row with bench/baselines.json; true when it
     *  matches or nothing is pinned for it. */
    bool crossCheck(const std::string &family, const std::string &row,
                    const StatsSnapshot &stats) const;
};

/** "Baseline/lazy @128t": the row labels bench/baselines.json keys on
 *  (benchutil::rowName in bench/bench_util.h). */
std::string rowName(SystemMode mode, ConflictDetection det,
                    uint32_t threads);

/** Table I machine, or its proportional scale-up past 128 cores. */
MachineConfig machineCfg(SystemMode mode, ConflictDetection det,
                         uint32_t threads, const RowSeeds &seeds);

// The five workloads (workloads.cc): each runs one round of its rows.
void runContention(Context &ctx);
void runCommutative(Context &ctx);
void runStamp(Context &ctx);
void runService(Context &ctx);
void runReplay(Context &ctx);

/** Simulated cores of a workload's rows, for the layer probes. */
uint32_t workloadGeometry(const std::string &workload);

/** Host-time ratio of an observers-on capture run to the same run
 *  with observers off, minus one (replay workload, traced runs). */
double replayObserverOverhead(bool smoke);

/** Layer probes (probes.cc): name -> median ns per operation. */
std::map<std::string, double> runProbes(uint32_t cores, bool smoke);

double median(std::vector<double> values);
/** Fastest of @p values (not empty): the host time of work that is
 *  identical in every repetition, to which other processes can only
 *  add time. */
double fastest(const std::vector<double> &values);
/** Lower each entry of @p best to the matching entry of @p round (the
 *  per-row times of one more round); an empty @p best takes it whole. */
void keepFastest(std::vector<double> &best,
                 const std::vector<double> &round);

} // namespace perf
} // namespace commtm

#endif // COMMTM_BENCH_PERF_PERF_H
