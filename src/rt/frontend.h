/**
 * @file
 * Workload frontends (docs/ARCHITECTURE.md Sec. 11): what produces
 * the per-thread operation streams a Machine simulates. Three exist:
 * ClosedLoopFrontend (here) runs compiled-in workload bodies (the
 * classic mode, used by src/apps/ and the figure benches),
 * ReplayFrontend (src/trace/replay.h) re-executes a captured trace,
 * and OpenLoopFrontend (src/rt/open_loop.h) serves arrival schedules.
 * Each has an attach(Machine&) that registers one simulated thread
 * per workload thread before Machine::run(), in a deterministic order
 * (thread i lands on core threadCore(i), exactly like direct
 * Machine::addThread calls). Decoupling the two means "a workload" is
 * data: the same capture sweeps detection modes, thread-count
 * geometries, and cache sizes without recompiling.
 */

#ifndef COMMTM_RT_FRONTEND_H
#define COMMTM_RT_FRONTEND_H

#include <functional>
#include <vector>

namespace commtm {

class Machine;
class ThreadContext;

/**
 * The compiled-in closed-loop frontend: workload bodies (C++ callables
 * programming against ThreadContext) added in thread order. Behavior
 * is identical to calling Machine::addThread directly.
 */
class ClosedLoopFrontend
{
  public:
    using Body = std::function<void(ThreadContext &)>;

    /** Append one workload thread body (runs on the next core). */
    void add(Body body) { bodies_.push_back(std::move(body)); }

    /** Register the bodies with @p machine, in order. */
    void attach(Machine &machine);

  private:
    std::vector<Body> bodies_;
};

} // namespace commtm

#endif // COMMTM_RT_FRONTEND_H
