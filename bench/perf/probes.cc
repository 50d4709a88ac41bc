/**
 * @file
 * Layer probes of the commtm_perf traced run: each times one public
 * call of one layer directly, on the workload's machine geometry, and
 * reports the median over kReps repetitions of the host nanoseconds
 * per operation. They name the layer a host-time change came from;
 * the end-to-end metrics say whether it mattered.
 */

#include <cstdint>
#include <vector>

#include "lib/counter.h"
#include "perf.h"
#include "rt/machine.h"
#include "sim/fiber.h"
#include "sim/latency_hist.h"

namespace commtm {
namespace perf {
namespace {

constexpr int kReps = 7;

/** Keeps probe results observable so no timed call can be elided. */
volatile uint64_t g_sink = 0;

double
elapsedNs(Clock::time_point t0)
{
    return std::chrono::duration<double, std::nano>(Clock::now() - t0)
        .count();
}

/** Median over kReps runs of @p batch, which returns ns per op. */
template <typename Batch>
double
medianOf(Batch &&batch)
{
    std::vector<double> reps;
    for (int i = 0; i < kReps; i++)
        reps.push_back(batch());
    return median(reps);
}

MachineConfig
probeCfg(uint32_t cores)
{
    MachineConfig cfg = MachineConfig::forCores(cores);
    cfg.mode = SystemMode::CommTm;
    return cfg;
}

Access
access(CoreId core, Addr addr, MemOp op, Label label = kNoLabel)
{
    Access a;
    a.core = core;
    a.addr = addr;
    a.op = op;
    a.label = label;
    return a;
}

/** One Fiber resume plus the fiber's yield back. */
double
fiberSwitch(uint64_t n)
{
    uint64_t left = n;
    Fiber fiber([&left] {
        while (left > 0) {
            left--;
            Fiber::current()->yield();
        }
    });
    uint64_t resumes = 0;
    const Clock::time_point t0 = Clock::now();
    while (!fiber.finished()) {
        fiber.resume();
        resumes++;
    }
    return elapsedNs(t0) / double(resumes);
}

/** A non-transactional load that hits in the L1. */
double
l1Hit(uint32_t cores, uint64_t n)
{
    Machine m(probeCfg(cores));
    const Access a = access(0, m.allocator().allocLines(1), MemOp::Load);
    m.memSys().access(a);
    uint64_t sum = 0;
    const Clock::time_point t0 = Clock::now();
    for (uint64_t i = 0; i < n; i++)
        sum += m.memSys().access(a).latency;
    const double ns = elapsedNs(t0) / double(n);
    g_sink = g_sink + sum;
    return ns;
}

/** Stores alternating between two cores: a GETX that invalidates the
 *  other core's copy every time. */
double
getxPingPong(uint32_t cores, uint64_t n)
{
    Machine m(probeCfg(cores));
    const Addr line = m.allocator().allocLines(1);
    const Access a[2] = {access(0, line, MemOp::Store),
                         access(1, line, MemOp::Store)};
    uint64_t sum = 0;
    const Clock::time_point t0 = Clock::now();
    for (uint64_t i = 0; i < n; i++)
        sum += m.memSys().access(a[i & 1]).latency;
    const double ns = elapsedNs(t0) / double(n);
    g_sink = g_sink + sum;
    return ns;
}

/** Every other core reads a line, then core 0 writes it: one timed
 *  store invalidating cores - 1 sharers. */
double
invalFanout(uint32_t cores, uint64_t n)
{
    Machine m(probeCfg(cores));
    const Addr line = m.allocator().allocLines(1);
    const Access store = access(0, line, MemOp::Store);
    double ns = 0;
    uint64_t sum = 0;
    for (uint64_t i = 0; i < n; i++) {
        for (CoreId c = 1; c < cores; c++)
            m.memSys().access(access(c, line, MemOp::Load));
        const Clock::time_point t0 = Clock::now();
        sum += m.memSys().access(store).latency;
        ns += elapsedNs(t0);
    }
    g_sink = g_sink + sum;
    return ns / double(n);
}

/** Labeled stores from every other core (a GETU each, joining the U
 *  sharers), then a conventional load from core 0 (a reduction over
 *  all of them). Returns {ns per GETU, ns per reduction}. */
std::pair<double, double>
getuAndReduce(uint32_t cores, uint64_t n)
{
    Machine m(probeCfg(cores));
    const Label add = CommCounter::defineLabel(m);
    const Addr line = m.allocator().allocLines(1);
    double getu_ns = 0;
    double reduce_ns = 0;
    uint64_t sum = 0;
    for (uint64_t i = 0; i < n; i++) {
        Clock::time_point t0 = Clock::now();
        for (CoreId c = 1; c < cores; c++) {
            sum += m.memSys()
                       .access(access(c, line, MemOp::LabeledStore, add))
                       .latency;
        }
        getu_ns += elapsedNs(t0);
        t0 = Clock::now();
        sum += m.memSys().access(access(0, line, MemOp::Load)).latency;
        reduce_ns += elapsedNs(t0);
    }
    g_sink = g_sink + sum;
    return {getu_ns / double(n * (cores - 1)), reduce_ns / double(n)};
}

/** beginAttempt, 16 transactional stores, then commit or abort. */
double
htmAttempt(uint32_t cores, uint64_t n, bool commit)
{
    Machine m(probeCfg(cores));
    HtmManager &htm = m.htm();
    const Addr base = m.allocator().allocLines(16);
    Rng rng(1);
    uint64_t sum = 0;
    const Clock::time_point t0 = Clock::now();
    for (uint64_t i = 0; i < n; i++) {
        htm.beginAttempt(0);
        for (uint32_t l = 0; l < 16; l++) {
            Access a = access(0, base + l * kLineSize, MemOp::Store);
            a.isTx = true;
            a.ts = htm.txTs(0);
            sum += m.memSys().access(a).latency;
        }
        if (commit)
            sum += htm.commit(0);
        else
            sum += htm.abortAttempt(0, AbortCause::Explicit, rng);
        htm.finish(0);
    }
    const double ns = elapsedNs(t0) / double(n);
    g_sink = g_sink + sum;
    return ns;
}

/** One latency-histogram record. */
double
histRecord(uint64_t n)
{
    std::vector<uint64_t> values(4096);
    Rng rng(7);
    for (uint64_t &v : values)
        v = rng.below(uint64_t(1) << 20);
    LatencyHistogram hist;
    const Clock::time_point t0 = Clock::now();
    for (uint64_t i = 0; i < n; i++)
        hist.record(values[i & 4095]);
    const double ns = elapsedNs(t0) / double(n);
    g_sink = g_sink + hist.p99();
    return ns;
}

} // namespace

std::map<std::string, double>
runProbes(uint32_t cores, bool smoke)
{
    const uint64_t k = smoke ? 10 : 1;
    std::map<std::string, double> out;
    out["probe.fiber.switch_ns"] =
        medianOf([&] { return fiberSwitch(200000 / k); });
    out["probe.mem.l1_hit_ns"] =
        medianOf([&] { return l1Hit(cores, 500000 / k); });
    out["probe.mem.getx_pingpong_ns"] =
        medianOf([&] { return getxPingPong(cores, 100000 / k); });
    out["probe.mem.inval_fanout_ns"] =
        medianOf([&] { return invalFanout(cores, 200 / k); });
    std::vector<double> getu;
    std::vector<double> reduce;
    for (int i = 0; i < kReps; i++) {
        const auto [g, r] = getuAndReduce(cores, 200 / k);
        getu.push_back(g);
        reduce.push_back(r);
    }
    out["probe.commtm.getu_ns"] = median(getu);
    out["probe.commtm.reduce_ns"] = median(reduce);
    out["probe.htm.commit16_ns"] =
        medianOf([&] { return htmAttempt(cores, 20000 / k, true); });
    out["probe.htm.abort16_ns"] =
        medianOf([&] { return htmAttempt(cores, 20000 / k, false); });
    out["probe.hist.record_ns"] =
        medianOf([&] { return histRecord(1000000 / k); });
    return out;
}

} // namespace perf
} // namespace commtm
