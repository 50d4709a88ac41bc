/**
 * @file
 * Deterministic trace replay (docs/ARCHITECTURE.md Sec. 11):
 * ReplayFrontend re-executes a parsed capture against any
 * MachineConfig. Each captured thread stream becomes one simulated
 * thread that re-issues the recorded ops through
 * ThreadContext::access; transaction outcomes are re-resolved through
 * the live HTM — a replayed transaction that aborts backs off and
 * re-issues its recorded ops from the TxBegin boundary, exactly like
 * a closed-loop body retry. Replaying a capture on its capture config
 * reproduces every counter bit-identically (tests/trace_test.cc).
 */

#ifndef COMMTM_TRACE_REPLAY_H
#define COMMTM_TRACE_REPLAY_H

#include "trace/trace_reader.h"

namespace commtm {

class Machine;
class ThreadContext;

/** The replay frontend (rt/frontend.h): one simulated thread per
 *  captured thread stream. */
class ReplayFrontend
{
  public:
    /** @p trace must outlive the frontend and the machine run. */
    explicit ReplayFrontend(const Trace &trace) : trace_(trace) {}

    /** Register one thread per stream with @p machine. It must have
     *  at least trace.numThreads() cores and the same label
     *  definitions as the capture-time machine (label ids are
     *  recorded raw; reduction/split handlers come from the live
     *  registry). */
    void attach(Machine &machine);

  private:
    static void replayThread(ThreadContext &ctx,
                             const std::vector<TraceRecord> &records);
    static void replayOne(ThreadContext &ctx, const TraceRecord &rec);

    const Trace &trace_;
};

} // namespace commtm

#endif // COMMTM_TRACE_REPLAY_H
