/**
 * @file
 * The five commtm_perf workloads (bench/perf/README.md explains why
 * each exists and which layers it loads). A workload is one round of
 * rows; main.cc repeats rounds for its time budget. Rows reuse the
 * figure benches' inputs, so under the default seed every contention
 * and stamp row reproduces its bench/baselines.json entry exactly.
 */

#include <algorithm>
#include <cstring>
#include <functional>
#include <memory>
#include <optional>

#include "apps/boruvka.h"
#include "apps/genome.h"
#include "apps/intruder.h"
#include "apps/kmeans.h"
#include "apps/labyrinth.h"
#include "apps/micro.h"
#include "apps/ssca2.h"
#include "apps/vacation.h"
#include "apps/yada.h"
#include "lib/bounded_counter.h"
#include "lib/counter.h"
#include "lib/linked_list.h"
#include "lib/topk.h"
#include "perf.h"
#include "rt/frontend.h"
#include "rt/machine.h"
#include "rt/open_loop.h"
#include "trace/replay.h"
#include "trace/trace_reader.h"

namespace commtm {
namespace perf {
namespace {

constexpr auto kEager = ConflictDetection::Eager;
constexpr auto kLazy = ConflictDetection::Lazy;
constexpr auto kBase = SystemMode::BaselineHtm;
constexpr auto kComm = SystemMode::CommTm;

/** Thread @p t's share of @p total ops (the figure benches' split). */
uint64_t
share(uint32_t t, uint32_t threads, uint64_t total)
{
    return total / threads + (t < total % threads ? 1 : 0);
}

/** Open a row: a top-level span whose children are the row's calls. */
Recorder::Scope
openRow(Context &ctx, const std::string &label)
{
    ctx.rec.beginRow(label);
    return Recorder::Scope(ctx.rec, "row", Charge::None);
}

std::unique_ptr<Machine>
newMachine(Context &ctx, const MachineConfig &cfg)
{
    return ctx.rec.time("setup.machine", Charge::Setup,
                        [&] { return std::make_unique<Machine>(cfg); });
}

/** Run @p m (frontend attached) as @p span and snapshot its stats. */
StatsSnapshot
runMachine(Context &ctx, Machine &m, const char *span = "rt.run")
{
    ctx.rec.time(span, Charge::Wall, [&] { m.run(); });
    return ctx.rec.time("stats.snapshot", Charge::Wall,
                        [&] { return m.stats(); });
}

// ---------------------------------------------------------------------
// Rows run through the src/apps entry points (contention, stamp,
// commutative).
// ---------------------------------------------------------------------

struct AppOutcome {
    StatsSnapshot stats;
    bool valid = false;
    std::vector<uint64_t> extra; //!< functional results, into the digest
};

AppOutcome
fromMicro(const MicroResult &r)
{
    return {r.stats, r.valid,
            {uint64_t(r.observed), uint64_t(r.expected)}};
}

using AppRun =
    std::function<AppOutcome(const MachineConfig &, const RowSeeds &)>;

/**
 * One row through a src/apps entry point. The entry point builds and
 * tears down its own Machine inside the call, so that work lands in
 * wall time; the row's setup charge is a standalone construction of
 * the same machine, so work moved into Machine construction still
 * shows in setup_s. Returns the row's simulated cycles.
 */
uint64_t
appRow(Context &ctx, const std::string &family, SystemMode mode,
       ConflictDetection det, uint32_t threads, const AppRun &run)
{
    const std::string label = rowName(mode, det, threads);
    const Recorder::Scope row = openRow(ctx, family + " " + label);
    const RowSeeds seeds = ctx.rowSeeds();
    const MachineConfig cfg = machineCfg(mode, det, threads, seeds);
    {
        std::optional<Machine> standalone;
        ctx.rec.time("setup.machine", Charge::Setup,
                     [&] { standalone.emplace(cfg); });
    }
    const AppOutcome out = ctx.rec.time(
        "apps.run", Charge::Wall, [&] { return run(cfg, seeds); });
    const bool ok = ctx.rec.time("check.validate", Charge::Wall, [&] {
        return out.valid && ctx.crossCheck(family, label, out.stats);
    });
    ctx.round.addRow(family + " " + label, out.stats, ok, out.extra);
    return out.stats.runtimeCycles();
}

/** The Baseline row, then the CommTM row, paired for the speedup. */
void
pairRows(Context &ctx, const std::string &family, ConflictDetection det,
         uint32_t threads, const AppRun &run)
{
    const uint64_t base = appRow(ctx, family, kBase, det, threads, run);
    const uint64_t comm = appRow(ctx, family, kComm, det, threads, run);
    ctx.round.pairs[family + " " + rowName(kComm, det, threads)] = {
        base, comm};
}

AppRun
counterRun(uint32_t threads, uint64_t ops)
{
    return [=](const MachineConfig &cfg, const RowSeeds &) {
        return fromMicro(runCounterMicro(cfg, threads, ops));
    };
}

AppRun
refcountRun(uint32_t threads, uint64_t ops)
{
    return [=](const MachineConfig &cfg, const RowSeeds &) {
        return fromMicro(runRefcountMicro(cfg, threads, ops, 16));
    };
}

AppRun
listRun(uint32_t threads, uint64_t ops, uint32_t enqueue_pct)
{
    // The mixed list seeds a standing buffer, like fig12b.
    const uint32_t prefill = enqueue_pct < 100 ? 16 : 0;
    return [=](const MachineConfig &cfg, const RowSeeds &) {
        return fromMicro(
            runListMicro(cfg, threads, ops, enqueue_pct, prefill));
    };
}

AppRun
topkRun(uint32_t threads, uint64_t ops)
{
    return [=](const MachineConfig &cfg, const RowSeeds &) {
        return fromMicro(runTopkMicro(cfg, threads, ops, 100));
    };
}

// ---------------------------------------------------------------------
// counters-wide (commutative): a closed-loop row built here.
// ---------------------------------------------------------------------

/** Committed sum of @p counters, one reduced line read per line. */
int64_t
sumCounters(Machine &m, const std::vector<CommCounter> &counters)
{
    int64_t sum = 0;
    Addr line = ~Addr(0);
    LineData data{};
    for (const CommCounter &c : counters) {
        if (lineAddr(c.addr()) != line) {
            line = lineAddr(c.addr());
            data = m.memSys().debugReducedValue(line);
        }
        int64_t v = 0;
        std::memcpy(&v, data.data() + lineOffset(c.addr()), sizeof(v));
        sum += v;
    }
    return sum;
}

/**
 * Uniform adds over 32768 CommCounters: 4096 lines, more than each
 * core's L1 and L2. Nearly every access is a U-state L1 hit, a
 * reduction, or a U eviction, and nothing aborts — the L1-hit and U
 * paths do the work and the abort path does none.
 */
void
countersWide(Context &ctx)
{
    constexpr uint32_t kThreads = 128;
    constexpr uint32_t kCounters = 32768;
    const uint64_t total = ctx.ops(524288);
    const std::string label =
        "counters-wide " + rowName(kComm, kEager, kThreads);
    const Recorder::Scope row = openRow(ctx, label);
    const RowSeeds seeds = ctx.rowSeeds();
    const std::unique_ptr<Machine> m =
        newMachine(ctx, machineCfg(kComm, kEager, kThreads, seeds));
    std::vector<CommCounter> counters;
    ctx.rec.time("setup.input", Charge::Setup, [&] {
        const Label add = CommCounter::defineLabel(*m);
        counters.reserve(kCounters);
        for (uint32_t i = 0; i < kCounters; i++)
            counters.emplace_back(*m, add);
    });
    ClosedLoopFrontend fe;
    ctx.rec.time("setup.schedule", Charge::Setup, [&] {
        for (uint32_t t = 0; t < kThreads; t++) {
            const uint64_t ops = share(t, kThreads, total);
            fe.add([&counters, ops](ThreadContext &c) {
                for (uint64_t i = 0; i < ops; i++)
                    counters[c.rng().below(kCounters)].add(c, 1);
            });
        }
        fe.attach(*m);
    });
    const StatsSnapshot stats = runMachine(ctx, *m);
    const int64_t sum = ctx.rec.time(
        "check.validate", Charge::Wall,
        [&] { return sumCounters(*m, counters); });
    ctx.round.addRow(label, stats, sum == int64_t(total),
                     {uint64_t(sum)});
}

// ---------------------------------------------------------------------
// Open-loop service rows (bench/svc_*.cc shapes).
// ---------------------------------------------------------------------

/** One service shape on one machine: structures, request body, and
 *  end-state check. */
class ServiceShape
{
  public:
    virtual ~ServiceShape() = default;
    virtual void serve(ThreadContext &ctx, uint64_t key) = 0;
    virtual bool check(Machine &m, const ServiceStats &svc) const = 0;
};

constexpr uint64_t kRequestWork = 48; // non-tx cycles per request

/** 16 Zipf-keyed counters (bench/svc_counter.cc). */
class CounterService final : public ServiceShape
{
  public:
    CounterService(Machine &m, uint32_t)
    {
        const Label add = CommCounter::defineLabel(m);
        for (int i = 0; i < 16; i++)
            counters_.emplace_back(m, add);
    }

    void
    serve(ThreadContext &ctx, uint64_t key) override
    {
        ctx.compute(kRequestWork);
        counters_[key].add(ctx, 1);
    }

    bool
    check(Machine &m, const ServiceStats &svc) const override
    {
        int64_t sum = 0;
        for (const CommCounter &c : counters_)
            sum += c.peek(m);
        return sum == int64_t(svc.completed);
    }

  private:
    std::vector<CommCounter> counters_;
};

/** 70/30 enqueue/dequeue over 8 Zipf-keyed lists (svc_list.cc). */
class ListService final : public ServiceShape
{
  public:
    ListService(Machine &m, uint32_t threads)
        : net_(threads, 0), seq_(threads, 0)
    {
        const Label label = CommList::defineLabel(m);
        const bool base = m.config().mode == kBase;
        for (int i = 0; i < 8; i++)
            lists_.push_back(std::make_unique<CommList>(m, label, base));
    }

    void
    serve(ThreadContext &ctx, uint64_t key) override
    {
        ctx.compute(kRequestWork);
        const uint32_t t = ctx.id();
        if (ctx.rng().below(100) < 70) {
            lists_[key]->enqueue(ctx, (uint64_t(t) << 32) | seq_[t]++);
            net_[t]++;
        } else {
            uint64_t value = 0;
            if (lists_[key]->dequeue(ctx, &value))
                net_[t]--;
        }
    }

    bool
    check(Machine &m, const ServiceStats &) const override
    {
        int64_t remaining = 0;
        int64_t expected = 0;
        for (const auto &list : lists_)
            remaining += int64_t(list->peekSize(m));
        for (int64_t n : net_)
            expected += n;
        return remaining == expected;
    }

  private:
    std::vector<std::unique_ptr<CommList>> lists_;
    std::vector<int64_t> net_;
    std::vector<uint64_t> seq_;
};

/** Scored inserts into one shared TopK(64) (bench/svc_topk.cc). */
class TopkService final : public ServiceShape
{
  public:
    TopkService(Machine &m, uint32_t threads)
        : set_(m, TopK::defineLabel(m, kK), kK), inserted_(threads)
    {
    }

    void
    serve(ThreadContext &ctx, uint64_t key) override
    {
        ctx.compute(kRequestWork);
        const int64_t score =
            int64_t((key << 40) | (ctx.rng().next() >> 24));
        set_.insert(ctx, score);
        inserted_[ctx.id()].push_back(score);
    }

    bool
    check(Machine &m, const ServiceStats &) const override
    {
        std::vector<int64_t> all;
        for (const auto &v : inserted_)
            all.insert(all.end(), v.begin(), v.end());
        std::sort(all.begin(), all.end(), std::greater<int64_t>());
        if (all.size() > kK)
            all.resize(kK);
        std::vector<int64_t> got = set_.peekAll(m);
        std::sort(got.begin(), got.end(), std::greater<int64_t>());
        return got == all;
    }

  private:
    static constexpr uint32_t kK = 64;
    TopK set_;
    std::vector<std::vector<int64_t>> inserted_;
};

struct ServiceKind {
    const char *name;
    double serviceCycles; //!< nominal uncontended request latency
    uint64_t zipfItems;
    std::unique_ptr<ServiceShape> (*make)(Machine &, uint32_t);
};

template <typename Shape>
std::unique_ptr<ServiceShape>
makeShape(Machine &m, uint32_t threads)
{
    return std::make_unique<Shape>(m, threads);
}

const ServiceKind kServiceKinds[] = {
    {"svc_counter", 100, 16, makeShape<CounterService>},
    {"svc_list", 300, 8, makeShape<ListService>},
    {"svc_topk", 100, 64, makeShape<TopkService>},
};

/** Arrival points: Poisson at four fractions of the nominal service
 *  rate, plus bench/svc_util.h's on-off burst (8x spikes). */
struct ArrivalPoint {
    const char *tag;
    ArrivalPattern::Kind kind;
    uint32_t loadPct;
};

const ArrivalPoint kArrivalPoints[] = {
    {"ld50", ArrivalPattern::Kind::Poisson, 50},
    {"ld70", ArrivalPattern::Kind::Poisson, 70},
    {"ld90", ArrivalPattern::Kind::Poisson, 90},
    {"ld110", ArrivalPattern::Kind::Poisson, 110},
    {"burst", ArrivalPattern::Kind::Bursty, 50},
};

/** Tail limit of the capacity search: p99 within this many nominal
 *  service times, with at most 1% of arrivals refused. */
constexpr uint64_t kP99Limit = 20;

void
serviceRow(Context &ctx, const ServiceKind &kind, SystemMode mode,
           ConflictDetection det, const ArrivalPoint &point,
           uint32_t threads)
{
    const std::string label =
        std::string(kind.name) + " " + rowName(mode, det, threads) +
        " " + point.tag;
    const Recorder::Scope row = openRow(ctx, label);
    const RowSeeds seeds = ctx.rowSeeds();
    const std::unique_ptr<Machine> m =
        newMachine(ctx, machineCfg(mode, det, threads, seeds));
    const std::unique_ptr<ServiceShape> shape = ctx.rec.time(
        "setup.input", Charge::Setup,
        [&] { return kind.make(*m, threads); });

    OpenLoopConfig cfg;
    cfg.pattern.kind = point.kind;
    cfg.pattern.meanGap = kind.serviceCycles * 100.0 / point.loadPct;
    cfg.pattern.burstFactor = 8.0;
    cfg.pattern.onMean = 2.0 * cfg.pattern.meanGap;
    cfg.pattern.offMean = 6.0 * cfg.pattern.meanGap;
    // The svc_* benches' window. Longer windows only grow the CommTM
    // list backlog (its p99 rises with window length at every load),
    // which would leave the capacity search nothing to find.
    cfg.arrivalsPerThread = uint32_t(ctx.ops(48, 24));
    cfg.warmupPerThread = 8;
    cfg.queueDepth = 16;
    cfg.zipfItems = kind.zipfItems;
    cfg.zipfS = 0.99;
    if (!seeds.pinned)
        cfg.seed = seeds.stream;
    const std::unique_ptr<OpenLoopFrontend> fe = ctx.rec.time(
        "setup.schedule", Charge::Setup, [&] {
            auto f = std::make_unique<OpenLoopFrontend>(
                cfg, threads, [&s = *shape](ThreadContext &c,
                                            uint64_t key) {
                    s.serve(c, key);
                });
            f->attach(*m);
            return f;
        });

    const StatsSnapshot stats = runMachine(ctx, *m);
    LatencyHistogram hist;
    ServiceStats svc;
    ctx.rec.time("svc.merge", Charge::Wall, [&] {
        hist = fe->mergedMeasure();
        svc = fe->totalService();
    });
    const bool ok = ctx.rec.time("check.validate", Charge::Wall,
                                 [&] { return shape->check(*m, svc); });

    RoundStats &r = ctx.round;
    r.addRow(label, stats, ok,
             {hist.p50(), hist.p99(), hist.p999(), hist.totalCount(),
              svc.admitted, svc.dropped, svc.maxDepth});
    (mode == kBase ? r.baselineHist : r.commtmHist).merge(hist);
    r.service.merge(svc);
    const uint64_t arrivals = svc.admitted + svc.dropped;
    r.arrivals += arrivals;
    if (det == kEager && threads == 128 &&
        point.kind == ArrivalPattern::Kind::Poisson) {
        const bool meets =
            double(hist.p99()) <= kP99Limit * kind.serviceCycles &&
            svc.dropped * 100 <= arrivals;
        bool &all = r.capacity
                        .try_emplace({int(mode), point.loadPct}, true)
                        .first->second;
        all = all && meets;
    }
}

// ---------------------------------------------------------------------
// Capture and replay rows (bench/replay_sweep.cc, extended).
// ---------------------------------------------------------------------

/**
 * One captured workload shape on one machine. Constructing it defines
 * the labels and structures; a replay machine constructs it again so
 * label ids and structure addresses match the capture.
 */
class CaptureShape
{
  public:
    virtual ~CaptureShape() = default;
    virtual void body(ThreadContext &ctx, uint32_t t, uint64_t ops) = 0;
    /** Functional check of the capture run. */
    virtual bool checkCapture(Machine &m, uint64_t total) const = 0;
    /** End-state check of a CommTM replay; only attempt-invariant
     *  bodies can promise one (bench/replay_sweep.cc header). */
    virtual bool
    checkReplay(Machine &, uint64_t) const
    {
        return true;
    }
};

class CounterCapture final : public CaptureShape
{
  public:
    CounterCapture(Machine &m, uint32_t)
        : counter_(m, CommCounter::defineLabel(m))
    {
    }

    void
    body(ThreadContext &ctx, uint32_t, uint64_t ops) override
    {
        for (uint64_t i = 0; i < ops; i++)
            counter_.add(ctx, 1);
    }

    bool
    checkCapture(Machine &m, uint64_t total) const override
    {
        return counter_.peek(m) == int64_t(total);
    }

    bool
    checkReplay(Machine &m, uint64_t total) const override
    {
        return counter_.peek(m) == int64_t(total);
    }

  private:
    CommCounter counter_;
};

/** CommList enqueues and, for mixed shapes, 50/50 dequeues with a
 *  standing buffer (src/apps/micro.cc's list body). */
class ListCapture final : public CaptureShape
{
  public:
    ListCapture(Machine &m, uint32_t threads, bool mixed)
        : list_(m, CommList::defineLabel(m), false), mixed_(mixed),
          net_(threads, 0)
    {
    }

    void
    body(ThreadContext &ctx, uint32_t t, uint64_t ops) override
    {
        const uint32_t prefill = mixed_ ? 16 : 0;
        for (uint32_t i = 0; i < prefill; i++) {
            list_.enqueue(ctx, (uint64_t(t) << 32) | (1u << 30) | i);
            net_[t]++;
        }
        for (uint64_t i = 0; i < ops; i++) {
            if (!mixed_ || ctx.rng().below(100) < 50) {
                list_.enqueue(ctx, (uint64_t(t) << 32) | i);
                net_[t]++;
            } else {
                uint64_t value = 0;
                if (list_.dequeue(ctx, &value))
                    net_[t]--;
            }
            ctx.compute(8);
        }
    }

    bool
    checkCapture(Machine &m, uint64_t) const override
    {
        int64_t expected = 0;
        for (int64_t n : net_)
            expected += n;
        return int64_t(list_.peekSize(m)) == expected;
    }

  private:
    CommList list_;
    bool mixed_;
    std::vector<int64_t> net_;
};

/** Fig. 10's reference counting over 16 bounded counters. */
class RefcountCapture final : public CaptureShape
{
  public:
    RefcountCapture(Machine &m, uint32_t threads) : held_(threads, 0)
    {
        const Label label = BoundedCounter::defineLabel(m);
        for (int o = 0; o < kObjects; o++) {
            counters_.push_back(std::make_unique<BoundedCounter>(
                m, label, int64_t(kInitial) * threads));
        }
    }

    void
    body(ThreadContext &ctx, uint32_t t, uint64_t ops) override
    {
        std::vector<int> held(kObjects, kInitial);
        Rng &rng = ctx.rng();
        for (uint64_t i = 0; i < ops; i++) {
            const uint32_t o = uint32_t(rng.below(kObjects));
            if (rng.chance(1.0 - double(held[o]) / kMaxRefs)) {
                counters_[o]->increment(ctx);
                held[o]++;
            } else {
                counters_[o]->decrement(ctx);
                held[o]--;
            }
            ctx.compute(8);
        }
        for (int h : held)
            held_[t] += h;
    }

    bool
    checkCapture(Machine &m, uint64_t) const override
    {
        int64_t observed = 0;
        int64_t expected = 0;
        for (const auto &c : counters_)
            observed += c->peek(m);
        for (int64_t h : held_)
            expected += h;
        return observed == expected;
    }

  private:
    static constexpr int kObjects = 16;
    static constexpr int kInitial = 3;
    static constexpr int kMaxRefs = 10;
    std::vector<std::unique_ptr<BoundedCounter>> counters_;
    std::vector<int64_t> held_;
};

struct CaptureKind {
    const char *name;
    uint64_t ops; //!< total ops of the capture run
    std::function<std::unique_ptr<CaptureShape>(Machine &, uint32_t)>
        make;
};

const CaptureKind kCaptureKinds[] = {
    {"counter", 24000,
     [](Machine &m, uint32_t n) {
         return std::make_unique<CounterCapture>(m, n);
     }},
    {"list-enqueue", 16000,
     [](Machine &m, uint32_t n) {
         return std::make_unique<ListCapture>(m, n, false);
     }},
    {"list-mixed", 32000,
     [](Machine &m, uint32_t n) {
         return std::make_unique<ListCapture>(m, n, true);
     }},
    {"refcount", 64000,
     [](Machine &m, uint32_t n) {
         return std::make_unique<RefcountCapture>(m, n);
     }},
};

constexpr uint32_t kReplayThreads = 128;

/** The capture machine: Table I CommTM with all four observers on —
 *  the only configuration in the benchmark where they do work — or,
 *  for the overhead comparison, with all of them off. */
MachineConfig
captureCfg(const RowSeeds &seeds, bool observers)
{
    MachineConfig cfg = machineCfg(kComm, kEager, kReplayThreads, seeds);
    cfg.captureTrace = observers;
    cfg.recordCommits = observers;
    cfg.checkInvariants = observers;
    cfg.schedCrossCheckEvery = observers ? 1024 : 0;
    return cfg;
}

/** Attach @p shape's bodies for @p total ops to @p m. */
void
attachBodies(Machine &m, ClosedLoopFrontend &fe, CaptureShape &shape,
             uint64_t total)
{
    for (uint32_t t = 0; t < kReplayThreads; t++) {
        const uint64_t ops = share(t, kReplayThreads, total);
        fe.add([&shape, t, ops](ThreadContext &c) {
            shape.body(c, t, ops);
        });
    }
    fe.attach(m);
}

struct ReplayTarget {
    const char *name;
    SystemMode mode;
    ConflictDetection det;
    bool halfCaches;
};

const ReplayTarget kReplayTargets[] = {
    {"CommTM", kComm, kEager, false},
    {"CommTM/lazy", kComm, kLazy, false},
    {"CommTM/small$", kComm, kEager, true},
    {"Baseline", kBase, kEager, false},
};

void
replayShape(Context &ctx, const CaptureKind &kind)
{
    const uint64_t total = ctx.ops(kind.ops);
    const std::string at = " @" + std::to_string(kReplayThreads) + "t";
    Trace trace;
    uint64_t commits = 0;
    {
        const std::string label = std::string(kind.name) + " capture" + at;
        const Recorder::Scope row = openRow(ctx, label);
        const std::unique_ptr<Machine> m =
            newMachine(ctx, captureCfg(ctx.rowSeeds(), true));
        const std::unique_ptr<CaptureShape> shape = ctx.rec.time(
            "setup.input", Charge::Setup,
            [&] { return kind.make(*m, kReplayThreads); });
        ClosedLoopFrontend fe;
        ctx.rec.time("setup.schedule", Charge::Setup,
                     [&] { attachBodies(*m, fe, *shape, total); });
        const StatsSnapshot stats = runMachine(ctx, *m);
        const bool valid = ctx.rec.time(
            "check.validate", Charge::Wall,
            [&] { return shape->checkCapture(*m, total); });
        const TraceWriter &writer = *m->traceWriter();
        const std::vector<uint8_t> bytes = ctx.rec.time(
            "trace.serialize", Charge::Wall,
            [&] { return writer.serialize(); });
        std::string err;
        const bool parsed = ctx.rec.time(
            "trace.parse", Charge::Setup,
            [&] { return TraceReader::parse(bytes, &trace, &err); });
        if (!parsed)
            std::fprintf(stderr, "%s: %s\n", label.c_str(), err.c_str());
        commits = writer.commits();
        uint64_t records = 0;
        for (uint32_t c = 0; c < writer.numThreads(); c++)
            records += writer.recordsOf(c);
        ctx.round.traceBytes += bytes.size();
        ctx.round.traceRecords += records;
        ctx.round.traceCommits += commits;
        ctx.round.addRow(label, stats, valid && parsed,
                         {bytes.size(), records, commits});
    }
    uint64_t base_cycles = 0;
    uint64_t comm_cycles = 0;
    for (const ReplayTarget &target : kReplayTargets) {
        const std::string label =
            std::string(kind.name) + " replay " + target.name + at;
        const Recorder::Scope row = openRow(ctx, label);
        MachineConfig cfg = machineCfg(target.mode, target.det,
                                       kReplayThreads, ctx.rowSeeds());
        if (target.halfCaches) {
            cfg.l1SizeKB /= 2;
            cfg.l2SizeKB /= 2;
            cfg.l3SizeKB /= 2;
        }
        const std::unique_ptr<Machine> m = newMachine(ctx, cfg);
        const std::unique_ptr<CaptureShape> shape = ctx.rec.time(
            "setup.input", Charge::Setup,
            [&] { return kind.make(*m, kReplayThreads); });
        ReplayFrontend fe(trace);
        ctx.rec.time("setup.schedule", Charge::Setup,
                     [&] { fe.attach(*m); });
        const StatsSnapshot stats = runMachine(ctx, *m, "trace.replay");
        // Every captured transaction commits exactly once on any
        // config; CommTM replays of attempt-invariant bodies also
        // reproduce the end state.
        const bool ok = ctx.rec.time("check.validate", Charge::Wall, [&] {
            return stats.aggregateThreads().txCommitted == commits &&
                   (target.mode != kComm ||
                    shape->checkReplay(*m, total));
        });
        ctx.round.addRow(label, stats, ok);
        if (target.det == kEager && !target.halfCaches)
            (target.mode == kBase ? base_cycles : comm_cycles) =
                stats.runtimeCycles();
    }
    ctx.round.pairs[std::string(kind.name) + " replay"] = {base_cycles,
                                                           comm_cycles};
}

} // namespace

// ---------------------------------------------------------------------
// The five workloads.
// ---------------------------------------------------------------------

void
runContention(Context &ctx)
{
    // Pinned high-contention figure rows, Baseline and CommTM. Baseline
    // abort storms dominate the host time. The 128/256-thread list
    // rows (4-8 s each) do not fit a round; their 32/64-thread rows
    // keep the storms.
    pairRows(ctx, "fig09", kEager, 256, counterRun(256, ctx.ops(24000)));
    pairRows(ctx, "fig10", kEager, 128, refcountRun(128, ctx.ops(128000)));
    pairRows(ctx, "fig12a", kEager, 32, listRun(32, ctx.ops(64000), 100));
    pairRows(ctx, "fig12b", kEager, 64, listRun(64, ctx.ops(64000), 50));
    pairRows(ctx, "fig14", kEager, 128, topkRun(128, ctx.ops(48000)));
}

void
runCommutative(Context &ctx)
{
    // CommTM only, op counts scaled up from the figures: the U-state
    // paths (L1 hits, reductions, gathers, U evictions) do the work,
    // and almost nothing aborts.
    appRow(ctx, "counter", kComm, kEager, 256,
           counterRun(256, ctx.ops(384000)));
    appRow(ctx, "list-enqueue", kComm, kEager, 128,
           listRun(128, ctx.ops(256000), 100));
    appRow(ctx, "list-mixed", kComm, kEager, 128,
           listRun(128, ctx.ops(256000), 50));
    appRow(ctx, "refcount", kComm, kEager, 128,
           refcountRun(128, ctx.ops(512000)));
    appRow(ctx, "topk", kComm, kEager, 128, topkRun(128, ctx.ops(192000)));
    countersWide(ctx);
}

void
runStamp(Context &ctx)
{
    // One pinned thread count per STAMP port (the figure inputs), both
    // systems; the three later ports also run lazy detection.
    pairRows(ctx, "fig16_boruvka", kEager, 128,
             [&](const MachineConfig &cfg, const RowSeeds &s) {
                 BoruvkaConfig c;
                 c.numVertices = uint32_t(ctx.ops(4096));
                 if (!s.pinned)
                     c.graphSeed = s.app;
                 const BoruvkaResult r = runBoruvka(cfg, 128, c);
                 return AppOutcome{r.stats, r.valid(),
                                   {r.mstWeight, r.rounds}};
             });
    pairRows(ctx, "fig16_kmeans", kEager, 128,
             [&](const MachineConfig &cfg, const RowSeeds &s) {
                 KmeansConfig c;
                 c.numPoints = uint32_t(ctx.ops(2048));
                 c.maxIters = 4;
                 if (!s.pinned)
                     c.seed = s.app;
                 const KmeansResult r = runKmeans(cfg, 128, c);
                 return AppOutcome{r.stats, r.valid(c.numPoints),
                                   {r.iterations}};
             });
    pairRows(ctx, "fig16_ssca2", kEager, 32,
             [&](const MachineConfig &cfg, const RowSeeds &s) {
                 Ssca2Config c;
                 c.scale = ctx.smoke ? 11 : 14;
                 c.edgeFactor = 8;
                 if (!s.pinned)
                     c.seed = s.app;
                 const Ssca2Result r = runSsca2(cfg, 32, c);
                 return AppOutcome{r.stats, r.valid(), {r.edgesInserted}};
             });
    pairRows(ctx, "fig16_genome", kEager, 32,
             [&](const MachineConfig &cfg, const RowSeeds &s) {
                 GenomeConfig c;
                 c.genomeLength = uint32_t(ctx.ops(8192));
                 c.numSegments = uint32_t(ctx.ops(16384));
                 if (!s.pinned)
                     c.seed = s.app;
                 const GenomeResult r = runGenome(cfg, 32, c);
                 return AppOutcome{r.stats, r.valid(),
                                   {r.uniqueSegments, r.tableResizes}};
             });
    pairRows(ctx, "fig16_vacation", kEager, 32,
             [&](const MachineConfig &cfg, const RowSeeds &s) {
                 VacationConfig c;
                 c.relations = uint32_t(ctx.ops(2048));
                 c.numTasks = uint32_t(ctx.ops(6144));
                 if (!s.pinned)
                     c.seed = s.app;
                 const VacationResult r = runVacation(cfg, 32, c);
                 return AppOutcome{r.stats, r.valid(),
                                   {uint64_t(r.reservationsMade)}};
             });
    for (const ConflictDetection det : {kEager, kLazy}) {
        pairRows(ctx, "fig16_intruder", det, 128,
                 [&](const MachineConfig &cfg, const RowSeeds &s) {
                     IntruderConfig c;
                     c.numFlows = uint32_t(ctx.ops(1024, 128));
                     c.maxFrags = 8;
                     if (!s.pinned)
                         c.seed = s.app;
                     const IntruderResult r = runIntruder(cfg, 128, c);
                     return AppOutcome{
                         r.stats, r.valid(),
                         {r.flowsCompleted, uint64_t(r.attacksDetected)}};
                 });
        pairRows(ctx, "fig16_labyrinth", det, 128,
                 [&](const MachineConfig &cfg, const RowSeeds &s) {
                     LabyrinthConfig c;
                     c.width = 128;
                     c.height = 128;
                     c.numPaths = uint32_t(ctx.ops(1024, 128));
                     c.maxDisp = 8;
                     if (!s.pinned)
                         c.seed = s.app;
                     const LabyrinthResult r = runLabyrinth(cfg, 128, c);
                     return AppOutcome{r.stats, r.valid(),
                                       {r.pathsRouted, r.cellsClaimed}};
                 });
        pairRows(ctx, "fig16_yada", det, 128,
                 [&](const MachineConfig &cfg, const RowSeeds &s) {
                     YadaConfig c;
                     c.initialBad = uint32_t(ctx.ops(512, 64));
                     c.maxDepth = 6;
                     c.cavityCost = 96;
                     if (!s.pinned)
                         c.seed = s.app;
                     const YadaResult r = runYada(cfg, 128, c);
                     return AppOutcome{r.stats, r.valid(),
                                       {r.elementsProcessed}};
                 });
    }
}

void
runService(Context &ctx)
{
    for (const ServiceKind &kind : kServiceKinds) {
        for (const SystemMode mode : {kBase, kComm}) {
            for (const ConflictDetection det : {kEager, kLazy}) {
                for (const ArrivalPoint &point : kArrivalPoints)
                    serviceRow(ctx, kind, mode, det, point, 128);
                serviceRow(ctx, kind, mode, det, kArrivalPoints[4], 256);
            }
        }
    }
}

void
runReplay(Context &ctx)
{
    for (const CaptureKind &kind : kCaptureKinds)
        replayShape(ctx, kind);
}

uint32_t
workloadGeometry(const std::string &workload)
{
    return workload == "contention" ? 256 : 128;
}

double
replayObserverOverhead(bool smoke)
{
    // Alternate observers-on and observers-off capture runs of every
    // shape; compare the summed fastest run times.
    const int reps = smoke ? 1 : 3;
    double on_total = 0;
    double off_total = 0;
    for (const CaptureKind &kind : kCaptureKinds) {
        const uint64_t total = smoke ? std::max<uint64_t>(kind.ops / 8,
                                                          256)
                                     : kind.ops;
        std::vector<double> on;
        std::vector<double> off;
        for (int rep = 0; rep < 2 * reps; rep++) {
            const bool observers = rep % 2 == 0;
            Machine m(captureCfg(RowSeeds{}, observers));
            const std::unique_ptr<CaptureShape> shape =
                kind.make(m, kReplayThreads);
            ClosedLoopFrontend fe;
            attachBodies(m, fe, *shape, total);
            const Clock::time_point t0 = Clock::now();
            m.run();
            const double secs =
                std::chrono::duration<double>(Clock::now() - t0).count();
            (observers ? on : off).push_back(secs);
        }
        on_total += fastest(on);
        off_total += fastest(off);
    }
    return off_total > 0 ? on_total / off_total - 1.0 : 0.0;
}

} // namespace perf
} // namespace commtm
