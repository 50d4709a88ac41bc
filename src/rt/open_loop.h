/**
 * @file
 * The open-loop service frontend (docs/ARCHITECTURE.md Sec. 12): the
 * third workload frontend (rt/frontend.h), modeling independent users
 * arriving at a service rather than a fixed op count per thread. Each
 * simulated thread owns a deterministic, pre-generated arrival
 * schedule (Poisson or bursty cycles from rt/arrival.h, keys from the
 * Zipfian sampler) and a bounded FIFO request queue: arrivals that
 * find the queue full are dropped and counted, everything admitted is
 * serviced in arrival order by the caller-supplied transaction body,
 * and each request's enqueue-to-commit latency lands in a per-thread
 * log-spaced histogram (sim/latency_hist.h), split into warmup and
 * measurement windows.
 *
 * All waiting is expressed as ThreadContext::compute, so an open-loop
 * run is captured and replayed by the PR 9 trace machinery exactly
 * like a closed-loop one, and composes unchanged with the commit-order
 * oracle and the invariant checker.
 */

#ifndef COMMTM_RT_OPEN_LOOP_H
#define COMMTM_RT_OPEN_LOOP_H

#include <cstdint>
#include <functional>
#include <vector>

#include "rt/arrival.h"
#include "sim/latency_hist.h"
#include "sim/types.h"

namespace commtm {

class Machine;
class ThreadContext;

/** Open-loop run shape: arrival process, windows, queue bound, and
 *  the key distribution. */
struct OpenLoopConfig {
    ArrivalPattern pattern;
    /** Arrivals generated per thread (warmup + measurement). */
    uint32_t arrivalsPerThread = 48;
    /** The first N serviced requests per thread are the warmup
     *  window: recorded into the warmup histogram, excluded from the
     *  measurement one. */
    uint32_t warmupPerThread = 8;
    /** Bounded per-thread queue: an arrival that finds this many
     *  requests already pending is dropped. */
    uint32_t queueDepth = 16;
    /** Keys are drawn Zipf(zipfS) over [0, zipfItems). */
    uint64_t zipfItems = 16;
    double zipfS = 0.99;
    /** Stream seed; per-thread streams derive from it via splitmix. */
    uint64_t seed = 0x0010;
};

/** Queueing outcomes of one thread (or, via total(), the machine). */
struct ServiceStats {
    uint64_t admitted = 0;  //!< arrivals that joined the queue
    uint64_t dropped = 0;   //!< arrivals rejected by the full queue
    uint64_t completed = 0; //!< admitted requests serviced to commit
    uint64_t maxDepth = 0;  //!< peak queue occupancy observed

    void
    merge(const ServiceStats &other)
    {
        admitted += other.admitted;
        dropped += other.dropped;
        completed += other.completed;
        maxDepth = maxDepth > other.maxDepth ? maxDepth
                                             : other.maxDepth;
    }
};

/**
 * Frontend that drives @p threads simulated threads from seeded
 * arrival streams. The schedule (arrival cycles and keys) is fully
 * materialized at construction, before any simulation runs, so it is
 * independent of machine config and identical for every machine the
 * frontend shape is instantiated against.
 */
class OpenLoopFrontend
{
  public:
    /** Services one request: runs (at least) one transaction against
     *  key @p key. Called once per admitted arrival, in order. */
    using TxnBody = std::function<void(ThreadContext &ctx,
                                       uint64_t key)>;

    OpenLoopFrontend(const OpenLoopConfig &cfg, uint32_t threads,
                     TxnBody body);

    /** Register the service threads with @p machine. */
    void attach(Machine &machine);

    /** Deterministic cross-thread merges (thread order). */
    LatencyHistogram mergedMeasure() const;
    LatencyHistogram mergedWarmup() const;
    ServiceStats totalService() const;

  private:
    struct Arrival {
        Cycle cycle;
        uint64_t key;
    };

    struct ThreadState {
        std::vector<Arrival> schedule;
        LatencyHistogram measure;
        LatencyHistogram warmup;
        ServiceStats service;
    };

    void serviceLoop(ThreadContext &ctx, ThreadState &state);

    OpenLoopConfig cfg_;
    TxnBody body_;
    std::vector<ThreadState> states_;
};

} // namespace commtm

#endif // COMMTM_RT_OPEN_LOOP_H
