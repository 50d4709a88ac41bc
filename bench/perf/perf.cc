/**
 * @file
 * Shared pieces of the commtm_perf program: the host-time recorder,
 * the per-round accumulator, and row seeding and cross-checking.
 */

#include "perf.h"

#include <algorithm>
#include <cstdio>

namespace commtm {
namespace perf {

Recorder::Scope::Scope(Recorder &rec, const char *name, Charge charge)
    : rec_(rec), name_(name), charge_(charge), start_(rec.now())
{
    if (!rec_.tracing_)
        return;
    parent_ = rec_.open_;
    span_ = int32_t(rec_.spans_.size());
    rec_.spans_.push_back(Span{name_, start_, start_, parent_,
                               uint32_t(rec_.rows_.size() - 1)});
    rec_.open_ = span_;
}

Recorder::Scope::~Scope()
{
    const double end = rec_.now();
    const double secs = end - start_;
    if (charge_ == Charge::Setup) {
        rec_.setup_ += secs;
    } else if (charge_ == Charge::Wall) {
        rec_.wall_ += secs;
        if (!rec_.rowWall_.empty())
            rec_.rowWall_.back() += secs;
    }
    if (span_ < 0)
        return;
    rec_.spans_[size_t(span_)].end = end;
    rec_.open_ = parent_;
    if (charge_ != Charge::None)
        rec_.callTotals_[name_] += secs;
}

double
Recorder::now() const
{
    return std::chrono::duration<double>(Clock::now() - epoch_).count();
}

void
Recorder::beginRow(std::string label)
{
    rowWall_.push_back(0);
    if (tracing_)
        rows_.push_back(std::move(label));
}

void
Recorder::startRound(bool tracing)
{
    tracing_ = tracing;
    setup_ = 0;
    wall_ = 0;
    rowWall_.clear();
    callTotals_.clear();
}

void
RoundStats::fold(uint64_t value)
{
    for (int i = 0; i < 8; i++) {
        digest ^= (value >> (8 * i)) & 0xff;
        digest *= 0x100000001b3ull;
    }
}

void
RoundStats::addRow(const std::string &label, const StatsSnapshot &stats,
                   bool ok, const std::vector<uint64_t> &extra)
{
    rows++;
    if (!ok) {
        failed++;
        std::fprintf(stderr, "row FAILED its check: %s\n", label.c_str());
    }
    const ThreadStats agg = stats.aggregateThreads();
    const MachineStats &m = stats.machine;
    for (char c : label)
        fold(uint64_t(uint8_t(c)));
    for (uint64_t v :
         {uint64_t(stats.runtimeCycles()), agg.nonTxCycles,
          agg.txCommittedCycles, agg.txAbortedCycles, agg.txStarted,
          agg.txCommitted, agg.txAborted, agg.instrs, agg.labeledInstrs,
          m.l1Hits, m.l1Misses, m.l2Hits, m.l2Misses, m.l3Hits,
          m.l3Misses, m.invalidations, m.downgrades, m.nacks,
          m.reductions, m.reductionLinesMerged, m.gathers, m.splits,
          m.uWritebacks, m.uForwards, m.writebacks})
        fold(v);
    for (size_t i = 0; i < agg.abortsByCause.size(); i++)
        fold(agg.abortsByCause[i]);
    for (size_t i = 0; i < agg.wastedByCause.size(); i++)
        fold(agg.wastedByCause[i]);
    for (size_t i = 0; i < m.l3Gets.size(); i++)
        fold(m.l3Gets[i]);
    for (uint64_t v : extra)
        fold(v);

    cycles += stats.runtimeCycles();
    threads.nonTxCycles += agg.nonTxCycles;
    threads.txCommittedCycles += agg.txCommittedCycles;
    threads.txAbortedCycles += agg.txAbortedCycles;
    threads.txStarted += agg.txStarted;
    threads.txCommitted += agg.txCommitted;
    threads.txAborted += agg.txAborted;
    threads.instrs += agg.instrs;
    threads.labeledInstrs += agg.labeledInstrs;
    for (size_t i = 0; i < agg.abortsByCause.size(); i++)
        threads.abortsByCause[i] += agg.abortsByCause[i];
    for (size_t i = 0; i < agg.wastedByCause.size(); i++)
        threads.wastedByCause[i] += agg.wastedByCause[i];
    for (size_t i = 0; i < m.l3Gets.size(); i++)
        machine.l3Gets[i] += m.l3Gets[i];
    machine.l1Hits += m.l1Hits;
    machine.l1Misses += m.l1Misses;
    machine.l2Hits += m.l2Hits;
    machine.l2Misses += m.l2Misses;
    machine.l3Hits += m.l3Hits;
    machine.l3Misses += m.l3Misses;
    machine.invalidations += m.invalidations;
    machine.downgrades += m.downgrades;
    machine.nacks += m.nacks;
    machine.reductions += m.reductions;
    machine.reductionLinesMerged += m.reductionLinesMerged;
    machine.gathers += m.gathers;
    machine.splits += m.splits;
    machine.uWritebacks += m.uWritebacks;
    machine.uForwards += m.uForwards;
    machine.writebacks += m.writebacks;
}

namespace {

/** One splitmix64 step (the seeding discipline of Rng and the
 *  open-loop streams). */
uint64_t
mix(uint64_t seed, uint64_t salt)
{
    uint64_t z = seed + (salt + 1) * 0x9e3779b97f4a7c15ull;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

} // namespace

RowSeeds
Context::rowSeeds()
{
    const uint64_t row = nextRow++;
    RowSeeds s;
    s.pinned = seed == kDefaultSeed;
    s.machine = mix(seed, 3 * row);
    s.app = mix(seed, 3 * row + 1);
    s.stream = mix(seed, 3 * row + 2);
    return s;
}

uint64_t
Context::ops(uint64_t n, uint64_t floor) const
{
    return smoke ? std::max(n / 8, floor) : n;
}

bool
Context::crossCheck(const std::string &family, const std::string &row,
                    const StatsSnapshot &stats) const
{
    if (!baselines)
        return true;
    const auto fam = baselines->find(family);
    if (fam == baselines->end())
        return true;
    const auto it = fam->second.find(row);
    if (it == fam->second.end()) {
        std::fprintf(stderr, "baseline MISSING row [%s] %s\n",
                     family.c_str(), row.c_str());
        return false;
    }
    const benchutil::baseline::Entry &want = it->second;
    const ThreadStats agg = stats.aggregateThreads();
    const bool match = stats.runtimeCycles() == want.simCycles &&
                       agg.txCommitted == want.commits &&
                       agg.txAborted == want.aborts;
    if (!match) {
        std::fprintf(stderr,
                     "baseline MISMATCH: [%s] %s: cycles/commits/aborts "
                     "%llu/%llu/%llu, baseline says %llu/%llu/%llu\n",
                     family.c_str(), row.c_str(),
                     (unsigned long long)stats.runtimeCycles(),
                     (unsigned long long)agg.txCommitted,
                     (unsigned long long)agg.txAborted,
                     (unsigned long long)want.simCycles,
                     (unsigned long long)want.commits,
                     (unsigned long long)want.aborts);
    }
    return match;
}

std::string
rowName(SystemMode mode, ConflictDetection det, uint32_t threads)
{
    std::string row = mode == SystemMode::BaselineHtm ? "Baseline"
                      : mode == SystemMode::CommTm    ? "CommTM"
                                                      : "CommTM-NoGather";
    if (det == ConflictDetection::Lazy)
        row += "/lazy";
    return row + " @" + std::to_string(threads) + "t";
}

MachineConfig
machineCfg(SystemMode mode, ConflictDetection det, uint32_t threads,
           const RowSeeds &seeds)
{
    MachineConfig cfg = MachineConfig::forCores(threads);
    cfg.mode = mode;
    cfg.conflictDetection = det;
    if (!seeds.pinned)
        cfg.seed = seeds.machine;
    return cfg;
}

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0;
    std::sort(values.begin(), values.end());
    const size_t n = values.size();
    return n % 2 ? values[n / 2]
                 : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double
fastest(const std::vector<double> &values)
{
    return *std::min_element(values.begin(), values.end());
}

void
keepFastest(std::vector<double> &best, const std::vector<double> &round)
{
    if (best.empty()) {
        best = round;
        return;
    }
    for (size_t i = 0; i < best.size() && i < round.size(); i++)
        best[i] = std::min(best[i], round[i]);
}

} // namespace perf
} // namespace commtm
