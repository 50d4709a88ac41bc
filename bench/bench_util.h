/**
 * @file
 * The bench family registry. Each bench source regenerates one
 * table, figure, or ablation of the paper by registering families: a
 * name ("fig09") and an ordered list of rows, each a label
 * ("CommTM @128t") plus a function that runs the simulation and
 * returns its StatsSnapshot, whether its end state validated, and
 * any extra counters. A family's first row is its speedup reference.
 * commtm_bench (commtm_bench.cc) runs the rows, prints their
 * counters, and checks or writes bench/baselines.json; see
 * docs/BENCHMARKS.md.
 */

#ifndef COMMTM_BENCH_BENCH_UTIL_H
#define COMMTM_BENCH_BENCH_UTIL_H

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "sim/config.h"
#include "sim/stats.h"

namespace commtm {
namespace benchutil {

/**
 * Machine for a bench row. Up to 128 threads this is exactly the
 * Table I machine (so the checked-in baselines are stable); beyond
 * that, geometry scales proportionally via MachineConfig::forCores
 * (8 cores/tile, one bank/tile, smallest square mesh).
 */
inline MachineConfig
machineCfg(SystemMode mode, uint32_t threads = 0)
{
    MachineConfig cfg = MachineConfig::forCores(threads);
    cfg.mode = mode;
    return cfg;
}

inline const char *
modeName(SystemMode mode)
{
    switch (mode) {
      case SystemMode::BaselineHtm:    return "Baseline";
      case SystemMode::CommTmNoGather: return "CommTM-NoGather";
      case SystemMode::CommTm:         return "CommTM";
    }
    return "?";
}

/** Machine for a (system, detection) bench row — the eager/lazy
 *  variants the STAMP-port benches sweep. */
inline MachineConfig
machineCfg(SystemMode mode, ConflictDetection detection,
           uint32_t threads)
{
    MachineConfig cfg = machineCfg(mode, threads);
    cfg.conflictDetection = detection;
    return cfg;
}

/** Row label for a (system, detection, threads) bench row: the
 *  baseline file keys on these strings ("CommTM/lazy @128t"), so
 *  every bench must build them identically. */
inline std::string
rowName(SystemMode mode, ConflictDetection detection, uint32_t threads)
{
    std::string row = modeName(mode);
    if (detection == ConflictDetection::Lazy)
        row += "/lazy";
    return row + " @" + std::to_string(threads) + "t";
}

/** What one row reports. */
struct RowResult {
    StatsSnapshot stats;
    /** The workload's end state passed its check. An invalid row
     *  fails the run in every mode and is never pinned. */
    bool valid = false;
    /** Workload-specific counters, printed after the standard ones. */
    std::vector<std::pair<std::string, uint64_t>> extra{};
    /** Open-loop rows: measurement-window latency quantiles in
     *  simulated cycles, pinned alongside the exact counters. */
    bool hasQuantiles = false;
    uint64_t p50 = 0;
    uint64_t p99 = 0;
    uint64_t p999 = 0;
};

struct Row {
    std::string label;
    std::function<RowResult()> run;
};

struct Family {
    std::string name;
    /** Run order; rows[0] is the speedup reference. */
    std::vector<Row> rows;
};

/** Every registered family, in registration order. */
inline std::vector<Family> &
families()
{
    static std::vector<Family> all;
    return all;
}

/** Registers a family at static-initialization time:
 *  `const benchutil::Register kFig09("fig09", rows);` */
struct Register {
    Register(std::string name, std::vector<Row> rows)
    {
        families().push_back({std::move(name), std::move(rows)});
    }
};

using SweepFn =
    std::function<RowResult(const MachineConfig &cfg, uint32_t threads)>;

/**
 * The figure sweep: one row per (mode, detection, threads), nested in
 * that order and labeled rowName(). @p fn runs the workload on
 * machineCfg(mode, detection, threads). Listing Baseline first makes
 * the family's reference the eager baseline HTM at the fewest threads.
 */
inline std::vector<Row>
sweep(const std::vector<SystemMode> &modes,
      const std::vector<ConflictDetection> &detections,
      const std::vector<uint32_t> &threads, const SweepFn &fn)
{
    std::vector<Row> rows;
    for (const SystemMode mode : modes) {
        for (const ConflictDetection det : detections) {
            for (const uint32_t t : threads) {
                const MachineConfig cfg = machineCfg(mode, det, t);
                rows.push_back(
                    {rowName(mode, det, t), [=] { return fn(cfg, t); }});
            }
        }
    }
    return rows;
}

/** Eager-only figure sweep ("Baseline @1t", "CommTM @128t", ...). */
inline std::vector<Row>
sweep(const std::vector<SystemMode> &modes,
      const std::vector<uint32_t> &threads, const SweepFn &fn)
{
    return sweep(modes, {ConflictDetection::Eager}, threads, fn);
}

/** Thread counts swept in the paper's figures (x-axes of Figs. 9-16). */
inline const std::vector<uint32_t> &
threadSweep()
{
    static const std::vector<uint32_t> threads = {1, 2, 4, 8, 16,
                                                  32, 64, 96, 128};
    return threads;
}

/** threadSweep extended past the paper's 128-thread machine, for the
 *  benches that probe the scaled (256-core) geometry and the spilled
 *  sharer representation. */
inline const std::vector<uint32_t> &
extendedThreadSweep()
{
    static const std::vector<uint32_t> threads = {1, 2, 4, 8, 16, 32,
                                                  64, 96, 128, 256};
    return threads;
}

/** Reduced sweep for the (slower) full applications. */
inline const std::vector<uint32_t> &
appThreadSweep()
{
    static const std::vector<uint32_t> threads = {1, 8, 32, 64, 128};
    return threads;
}

} // namespace benchutil
} // namespace commtm

#endif // COMMTM_BENCH_BENCH_UTIL_H
