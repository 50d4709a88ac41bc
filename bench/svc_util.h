/**
 * @file
 * Shared shape of the open-loop service benches (svc_counter,
 * svc_list, svc_topk; docs/BENCHMARKS.md, "Open-loop service rows").
 * Each bench sweeps {Baseline, CommTM} x {eager, lazy} x arrival
 * discipline at 64-256 threads; the arrival dimension is an index
 * into svcArrivals(): two Poisson points at 50% and 90% of the
 * bench's nominal per-thread service rate, and one on-off burst
 * point whose ON phases spike to 8x the base rate (2x on average) —
 * the contention-spike shape the tail-latency claim is about.
 */

#ifndef COMMTM_BENCH_SVC_UTIL_H
#define COMMTM_BENCH_SVC_UTIL_H

#include "bench_util.h"

#include "rt/open_loop.h"
#include "sim/latency_hist.h"

namespace commtm {
namespace benchutil {

/** One point of the arrival sweep. loadPct scales the base rate
 *  against the bench's nominal service time. */
struct SvcArrival {
    const char *tag;
    ArrivalPattern::Kind kind;
    uint32_t loadPct;
};

inline const std::vector<SvcArrival> &
svcArrivals()
{
    static const std::vector<SvcArrival> sweep = {
        {"ld50", ArrivalPattern::Kind::Poisson, 50},
        {"ld90", ArrivalPattern::Kind::Poisson, 90},
        {"burst", ArrivalPattern::Kind::Bursty, 50},
    };
    return sweep;
}

/**
 * Arrival pattern for sweep point @p index, rated against
 * @p service_cycles (the bench's nominal uncontended per-request
 * service time). Burst phases average 16 arrivals ON (at 8x the base
 * rate) followed by a 6x-gap OFF silence.
 */
inline ArrivalPattern
svcPattern(uint32_t index, double service_cycles)
{
    const SvcArrival &point = svcArrivals()[index];
    ArrivalPattern pattern;
    pattern.kind = point.kind;
    pattern.meanGap = service_cycles * 100.0 / double(point.loadPct);
    pattern.burstFactor = 8.0;
    pattern.onMean = 2.0 * pattern.meanGap;
    pattern.offMean = 6.0 * pattern.meanGap;
    return pattern;
}

/** Row label: "CommTM/lazy burst @256t" — the baseline file keys on
 *  these, like rowName() for the closed-loop rows. */
inline std::string
svcRowName(SystemMode mode, ConflictDetection detection,
           uint32_t arrival_index, uint32_t threads)
{
    std::string row = modeName(mode);
    if (detection == ConflictDetection::Lazy)
        row += "/lazy";
    row += std::string(" ") + svcArrivals()[arrival_index].tag;
    return row + " @" + std::to_string(threads) + "t";
}

/** Thread counts of the service sweep: the high-contention end the
 *  tail-latency story is about. */
inline const std::vector<uint32_t> &
svcThreadSweep()
{
    static const std::vector<uint32_t> threads = {64, 128, 256};
    return threads;
}

/** Shared open-loop window shape of every service bench. */
inline OpenLoopConfig
svcConfig(uint32_t arrival_index, double service_cycles,
          uint64_t zipf_items)
{
    OpenLoopConfig cfg;
    cfg.pattern = svcPattern(arrival_index, service_cycles);
    cfg.arrivalsPerThread = 48;
    cfg.warmupPerThread = 8;
    cfg.queueDepth = 16;
    cfg.zipfItems = zipf_items;
    cfg.zipfS = 0.99;
    return cfg;
}

/**
 * The standard service sweep: {Baseline, CommTM} x {eager, lazy} x
 * arrival x threads, with the Baseline/eager/ld50/64t row first (the
 * family speedup reference). @p fn runs the service on
 * machineCfg(mode, detection, threads) at sweep point @p arrival.
 */
inline std::vector<Row>
svcSweep(const std::function<RowResult(const MachineConfig &cfg,
                                       uint32_t arrival,
                                       uint32_t threads)> &fn)
{
    std::vector<Row> rows;
    for (const SystemMode mode :
         {SystemMode::BaselineHtm, SystemMode::CommTm}) {
        for (const ConflictDetection det :
             {ConflictDetection::Eager, ConflictDetection::Lazy}) {
            for (uint32_t arrival = 0; arrival < svcArrivals().size();
                 arrival++) {
                for (const uint32_t threads : svcThreadSweep()) {
                    const MachineConfig cfg =
                        machineCfg(mode, det, threads);
                    rows.push_back(
                        {svcRowName(mode, det, arrival, threads),
                         [=] { return fn(cfg, arrival, threads); }});
                }
            }
        }
    }
    return rows;
}

/** Row result of a service run: the standard counters plus the
 *  measurement-window latency quantiles (simulated cycles, exact) and
 *  the queueing outcomes. @p hist must be the measurement-window
 *  merge — warmup requests are excluded by construction
 *  (rt/open_loop.h). */
inline RowResult
serviceResult(const StatsSnapshot &stats, bool valid,
              const LatencyHistogram &hist, const ServiceStats &svc)
{
    RowResult r{stats,
                valid,
                {{"admitted", svc.admitted},
                 {"dropped", svc.dropped},
                 {"qdepth_max", svc.maxDepth}}};
    r.hasQuantiles = true;
    r.p50 = hist.p50();
    r.p99 = hist.p99();
    r.p999 = hist.p999();
    return r;
}

} // namespace benchutil
} // namespace commtm

#endif // COMMTM_BENCH_SVC_UTIL_H
