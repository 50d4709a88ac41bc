/**
 * @file
 * Simulated machine configuration (paper Table I) and run-mode knobs.
 */

#ifndef COMMTM_SIM_CONFIG_H
#define COMMTM_SIM_CONFIG_H

#include <cstdint>
#include <string>

#include "sim/types.h"

namespace commtm {

/** Which HTM system a Machine models. */
enum class SystemMode {
    /** Conventional eager-lazy HTM: labeled ops execute as normal ops. */
    BaselineHtm,
    /** CommTM: U state, labeled ops, reductions; gathers act as reads. */
    CommTmNoGather,
    /** Full CommTM including gather requests (Sec. IV). */
    CommTm,
};

/**
 * When conflicts are detected (Sec. III-D generalization). Eager is the
 * paper's baseline (LTM/TSX-style, conflicts flagged by coherence at
 * access time). Lazy is TCC/Bulk-style: transactional stores buffer
 * silently, and the committing transaction aborts every concurrent
 * transaction whose read/write set intersects its write set.
 * U-state interactions (reductions, gathers) are handled immediately in
 * both (see docs/ARCHITECTURE.md Sec. 6).
 */
enum class ConflictDetection {
    Eager,
    Lazy,
};

/** How conflicts between two transactions are resolved. */
enum class ConflictPolicy {
    /** Paper default: earlier timestamp wins, younger aborts
     *  (Sec. III-B1). */
    TimestampOlderWins,
    /** Ablation: the requester always wins; the holder aborts. */
    RequesterWins,
};

/**
 * Configuration of the simulated chip. Defaults reproduce Table I:
 * 128 cores in 16 tiles, 32KB L1D, 128KB L2, 64MB 16-bank L3, 4x4 mesh.
 * Geometry is fully parameterized — use forCores() for proportionally
 * scaled 256-, 512-, or N-core machines — and checked by validate()
 * when a Machine is built.
 */
struct MachineConfig {
    uint32_t numCores = 128;
    uint32_t numTiles = 16;          //!< cores are distributed over tiles
    uint32_t meshDim = 4;            //!< tiles fit a meshDim x meshDim grid

    // L1 data cache: 32KB, 8-way, private per-core.
    uint32_t l1SizeKB = 32;
    uint32_t l1Ways = 8;
    Cycle l1Latency = 1;

    // L2: 128KB, 8-way, private per-core, inclusive of L1.
    uint32_t l2SizeKB = 128;
    uint32_t l2Ways = 8;
    Cycle l2Latency = 6;

    // L3: 64MB, 16 banks, 16-way, shared, inclusive, in-cache directory.
    uint32_t l3SizeKB = 64 * 1024;
    uint32_t l3Ways = 16;
    uint32_t l3Banks = 16;           //!< directory banks, striped over tiles
    Cycle l3BankLatency = 15;

    // NoC: 4x4 mesh, 2-cycle routers, 1-cycle links (per hop).
    Cycle routerLatency = 2;
    Cycle linkLatency = 1;

    // Main memory. Controllers are not modeled: every L3 miss pays
    // memLatency, with no queueing.
    Cycle memLatency = 136;

    // HTM.
    ConflictDetection conflictDetection = ConflictDetection::Eager;
    ConflictPolicy conflictPolicy = ConflictPolicy::TimestampOlderWins;
    /** Randomized-exponential backoff. Windows are kept close to the
     *  transaction service time: timestamp conflict resolution already
     *  guarantees the oldest transaction progresses, so backoff only
     *  needs to thin retry traffic, and oversized windows leave the
     *  serialized baseline idle between commits. */
    Cycle backoffBase = 16;
    uint32_t backoffMaxExp = 5;
    Cycle txBeginCost = 4;           //!< tx_begin/tx_end instruction cost
    Cycle txCommitCost = 4;
    Cycle abortCost = 12;            //!< pipeline flush + register restore
    /** Record every commit into Machine's CommitLog (sim/commit_log.h,
     *  docs/ARCHITECTURE.md Sec. 9). Strictly observation-only: the
     *  baseline wall runs bit-identical with it on. Also forced on by
     *  the COMMTM_RECORD_COMMITS environment variable (CI oracle
     *  legs). */
    bool recordCommits = false;
    /** Capture every thread's logical op stream into a TraceWriter
     *  (trace/trace_writer.h, docs/ARCHITECTURE.md Sec. 11). Strictly
     *  observation-only: the baseline wall runs bit-identical with it
     *  on. Also forced on by the COMMTM_CAPTURE_TRACE environment
     *  variable (CI baseline legs); a value containing '/' or '.' is
     *  taken as a file path the capture is serialized to after every
     *  Machine::run(). */
    bool captureTrace = false;
    /** Sweep the machine-wide invariant checker (sim/invariants.h,
     *  docs/ARCHITECTURE.md Sec. 10) every 100000 cycles at scheduler
     *  sync points and once at the end of every run. Strictly
     *  observation-only: the baseline wall runs bit-identical with it
     *  on. Also forced on by the COMMTM_CHECK_INVARIANTS environment
     *  variable: any value enables the periodic sweeps, and the value
     *  "drain" also forces denseInvariants. */
    bool checkInvariants = false;
    /** Additionally sweep after every transaction commit and abort and
     *  at the end of every top-level memory access. Only meaningful with
     *  checkInvariants, and meant for fuzz-scale machines: a Table I
     *  bench commits millions of transactions and misses constantly,
     *  and a full sweep at each swamps the run. */
    bool denseInvariants = false;

    // CommTM.
    SystemMode mode = SystemMode::CommTm;
    uint32_t hwLabels = kMaxHwLabels;
    /** Extra per-line cycles charged to a reduction/split handler run,
     *  on top of the handler's own simulated memory accesses. */
    Cycle reductionFixedCost = 8;

    /**
     * Maximum number of sharers a gather queries (0 = all, the paper's
     * design). The paper's future-work section suggests querying a
     * subset of sharers; with a limit, the directory forwards split
     * requests to the N donors nearest the requester on the mesh,
     * trading gather yield for latency and fewer split conflicts.
     */
    uint32_t gatherFanoutLimit = 0;

    /** Interleaving granularity: a running thread yields once it gets
     *  this many cycles ahead of the next-ready thread (zsim-style
     *  bound phase; see docs/ARCHITECTURE.md Sec. 2.1). */
    Cycle schedQuantum = 100;

    /** Cross-check the event-driven wakeup-list scheduler against the
     *  reference linear scan every N resumes (a Release-alive
     *  COMMTM_CHECK; docs/ARCHITECTURE.md Sec. 2.2). 0 selects the
     *  default cadence: every 1024 resumes in Debug builds, never in
     *  Release. The scheduler stress tests set 1 to verify every
     *  single pick. */
    uint32_t schedCrossCheckEvery = 0;

    uint64_t seed = 0x5eed;

    /** Tile that hosts core @p c (cores striped across tiles). */
    uint32_t coreTile(CoreId c) const { return c % numTiles; }
    /** Core that hosts simulated thread @p t. The identity mapping is
     *  deliberate: threads are created in a deterministic order, and
     *  with cores striped across tiles (coreTile) consecutive threads
     *  already spread over the whole mesh. */
    CoreId threadCore(uint32_t t) const { return CoreId(t); }
    /** L3 bank holding line @p line (address-interleaved). */
    uint32_t lineBank(Addr line) const { return line % l3Banks; }

    /**
     * Tile hosting L3 bank @p bank. With more banks than tiles the
     * banks stripe round-robin (each tile hosts l3Banks/numTiles
     * banks); with fewer, banks spread evenly so they do not crowd
     * the low-numbered tiles. validate() rejects ragged geometries, so
     * the divisions here are exact. bank == tile when l3Banks ==
     * numTiles (Table I and every forCores() machine).
     */
    uint32_t
    bankTile(uint32_t bank) const
    {
        return l3Banks >= numTiles ? bank % numTiles
                                   : bank * (numTiles / l3Banks);
    }

    /**
     * Table-I-proportioned geometry for a @p cores -core chip: the
     * default 8 cores per tile and one directory bank per tile, on the
     * smallest square mesh that seats all tiles. Any @p cores <= 128
     * returns the Table I machine unchanged, so results (and the
     * checked-in perf baselines) at paper scale are unaffected.
     */
    static MachineConfig forCores(uint32_t cores);

    /** Geometry sanity check; nullptr if consistent, else an error
     *  message. Machine aborts on a bad config at construction. */
    const char *validate() const;

    /** Number of lines in a per-core L1. */
    uint32_t l1Lines() const { return l1SizeKB * 1024 / kLineSize; }
    uint32_t l2Lines() const { return l2SizeKB * 1024 / kLineSize; }
    uint32_t l3Lines() const { return l3SizeKB * 1024 / kLineSize; }

    /** Human-readable one-line summary of the mode. */
    std::string modeName() const;
};

inline MachineConfig
MachineConfig::forCores(uint32_t cores)
{
    MachineConfig cfg;
    if (cores <= cfg.numCores)
        return cfg;
    cfg.numCores = cores;
    cfg.numTiles = (cores + 7) / 8;
    cfg.meshDim = 1;
    while (cfg.meshDim * cfg.meshDim < cfg.numTiles)
        cfg.meshDim++;
    cfg.l3Banks = cfg.numTiles;
    return cfg;
}

inline const char *
MachineConfig::validate() const
{
    if (numCores == 0)
        return "numCores must be positive";
    if (numTiles == 0 || numTiles > meshDim * meshDim)
        return "numTiles must be positive and fit the meshDim^2 grid";
    if (l3Banks == 0)
        return "l3Banks must be positive";
    if (l3Banks >= numTiles ? l3Banks % numTiles != 0
                            : numTiles % l3Banks != 0)
        return "l3Banks must evenly stripe over (or spread across) "
               "numTiles";
    if (l1Ways == 0 || l1Lines() % l1Ways != 0)
        return "L1 lines must divide evenly into ways";
    if (l2Ways == 0 || l2Lines() % l2Ways != 0)
        return "L2 lines must divide evenly into ways";
    if (l3Ways == 0 || l3Lines() % l3Ways != 0)
        return "L3 lines must divide evenly into ways";
    return nullptr;
}

inline std::string
MachineConfig::modeName() const
{
    switch (mode) {
      case SystemMode::BaselineHtm:   return "Baseline";
      case SystemMode::CommTmNoGather: return "CommTM w/o gather";
      case SystemMode::CommTm:        return "CommTM";
    }
    return "?";
}

} // namespace commtm

#endif // COMMTM_SIM_CONFIG_H
