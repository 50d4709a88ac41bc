/**
 * @file
 * OpenLoopFrontend implementation: schedule materialization at
 * construction, and the per-thread admit/service loop.
 */

#include "rt/open_loop.h"

#include <deque>

#include "rt/machine.h"

namespace commtm {

namespace {

/** One splitmix64 step: derives independent per-thread stream seeds
 *  from the config seed (matches Rng's own seeding discipline). */
uint64_t
mixSeed(uint64_t seed, uint64_t salt)
{
    uint64_t z = seed + (salt + 1) * 0x9e3779b97f4a7c15ull;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

} // namespace

OpenLoopFrontend::OpenLoopFrontend(const OpenLoopConfig &cfg,
                                   uint32_t threads, TxnBody body)
    : cfg_(cfg), body_(std::move(body)), states_(threads)
{
    ZipfSampler zipf(cfg_.zipfItems, cfg_.zipfS);
    for (uint32_t t = 0; t < threads; t++) {
        ArrivalStream stream(cfg_.pattern, mixSeed(cfg_.seed, 2 * t));
        Rng key_rng(mixSeed(cfg_.seed, 2 * t + 1));
        ThreadState &state = states_[t];
        state.schedule.reserve(cfg_.arrivalsPerThread);
        for (uint32_t i = 0; i < cfg_.arrivalsPerThread; i++) {
            state.schedule.push_back(
                Arrival{stream.next(), zipf.sample(key_rng)});
        }
    }
}

void
OpenLoopFrontend::attach(Machine &machine)
{
    for (uint32_t t = 0; t < states_.size(); t++) {
        machine.addThread([this, t](ThreadContext &ctx) {
            serviceLoop(ctx, states_[t]);
        });
    }
}

/**
 * The open-loop discipline. The thread is the queue's only producer
 * and consumer, and the queue can only drain between transactions, so
 * admitting lazily — every arrival with cycle <= now, in arrival
 * order, whenever the loop is between requests — is exactly
 * equivalent to admitting each arrival at its own cycle: occupancy
 * at any arrival instant is the deque size it observes here.
 */
void
OpenLoopFrontend::serviceLoop(ThreadContext &ctx, ThreadState &state)
{
    const std::vector<Arrival> &sched = state.schedule;
    std::deque<Arrival> queue;
    size_t next = 0;
    uint64_t serviced = 0;
    while (next < sched.size() || !queue.empty()) {
        const Cycle now = ctx.now();
        while (next < sched.size() && sched[next].cycle <= now) {
            if (queue.size() >= cfg_.queueDepth) {
                state.service.dropped++;
            } else {
                queue.push_back(sched[next]);
                state.service.admitted++;
                if (queue.size() > state.service.maxDepth)
                    state.service.maxDepth = queue.size();
            }
            next++;
        }
        if (queue.empty()) {
            // Idle until the next arrival. compute() (not a special
            // idle op) keeps the wait inside the captured op stream,
            // so trace replays re-time open-loop runs bit-exactly.
            ctx.compute(sched[next].cycle - now);
            continue;
        }
        const Arrival arrival = queue.front();
        queue.pop_front();
        body_(ctx, arrival.key);
        const Cycle latency = ctx.now() - arrival.cycle;
        if (serviced < cfg_.warmupPerThread)
            state.warmup.record(latency);
        else
            state.measure.record(latency);
        serviced++;
        state.service.completed++;
    }
}

LatencyHistogram
OpenLoopFrontend::mergedMeasure() const
{
    LatencyHistogram merged;
    for (const ThreadState &state : states_)
        merged.merge(state.measure);
    return merged;
}

LatencyHistogram
OpenLoopFrontend::mergedWarmup() const
{
    LatencyHistogram merged;
    for (const ThreadState &state : states_)
        merged.merge(state.warmup);
    return merged;
}

ServiceStats
OpenLoopFrontend::totalService() const
{
    ServiceStats total;
    for (const ThreadState &state : states_)
        total.merge(state.service);
    return total;
}

} // namespace commtm
