/**
 * @file
 * InvariantChecker implementation: the full-machine sweep over the
 * directory, private tag arrays, per-core U copies, and HTM signature
 * state, plus the structured-diagnostic formatting and the
 * abort-on-violation production entry point. See
 * docs/ARCHITECTURE.md Sec. 10 for the invariant catalog.
 */

#include "sim/invariants.h"

#include <algorithm>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>

#include "htm/htm.h"
#include "mem/coherence.h"
#include "sim/check.h"

namespace commtm {

void
commtmCheckFail(const char *file, int line, const char *expr,
                const char *fmt, ...)
{
    fprintf(stderr, "%s:%d: CHECK failed: %s", file, line, expr);
    if (fmt && fmt[0]) {
        fprintf(stderr, " (");
        va_list args;
        va_start(args, fmt);
        vfprintf(stderr, fmt, args);
        va_end(args);
        fprintf(stderr, ")");
    }
    fprintf(stderr, "\n");
    abort();
}

const char *
invariantKindName(InvariantKind kind)
{
    switch (kind) {
      case InvariantKind::DirSharerNotPresent:  return "DirSharerNotPresent";
      case InvariantKind::PrivLineNotInDir:     return "PrivLineNotInDir";
      case InvariantKind::ExclusivityViolation: return "ExclusivityViolation";
      case InvariantKind::DirStateMismatch:     return "DirStateMismatch";
      case InvariantKind::SharerCountMismatch:  return "SharerCountMismatch";
      case InvariantKind::ReservedWayViolation: return "ReservedWayViolation";
      case InvariantKind::ULabelMismatch:       return "ULabelMismatch";
      case InvariantKind::UCopyMissing:         return "UCopyMissing";
      case InvariantKind::UCopyOrphan:          return "UCopyOrphan";
      case InvariantKind::InclusionViolation:   return "InclusionViolation";
      case InvariantKind::SpecBitsOutsideTx:    return "SpecBitsOutsideTx";
      case InvariantKind::SignatureSetMismatch: return "SignatureSetMismatch";
      case InvariantKind::WriteBufferNotInSet:  return "WriteBufferNotInSet";
      case InvariantKind::SpecStateLeak:        return "SpecStateLeak";
      case InvariantKind::HandlerDepthExceeded: return "HandlerDepthExceeded";
    }
    return "?";
}

const char *
InvariantChecker::syncPointName(SyncPoint where)
{
    switch (where) {
      case SyncPoint::AccessEnd: return "access-end";
      case SyncPoint::Commit:    return "commit";
      case SyncPoint::Abort:     return "abort";
      case SyncPoint::Periodic:  return "periodic";
      case SyncPoint::Manual:    return "manual";
    }
    return "?";
}

namespace {

void
appendf(std::string &out, const char *fmt, ...)
{
    char buf[256];
    va_list args;
    va_start(args, fmt);
    vsnprintf(buf, sizeof(buf), fmt, args);
    va_end(args);
    out += buf;
}

/** "{0,3,17}" rendering of a sharer set (capped for huge sets). */
std::string
formatSharers(const Sharers &sharers)
{
    std::string out = "{";
    uint32_t printed = 0;
    sharers.forEach([&](CoreId s) {
        if (printed >= 16) {
            if (printed == 16)
                out += ",...";
            printed++;
            return;
        }
        appendf(out, printed ? ",%u" : "%u", s);
        printed++;
    });
    out += "}";
    return out;
}

bool
isULine(const PrivLine &entry)
{
    return entry.state == PrivState::U;
}

} // namespace

InvariantChecker::InvariantChecker(const MachineConfig &cfg,
                                   const MemorySystem &mem,
                                   const HtmManager &htm)
    : cfg_(cfg), mem_(mem), htm_(htm)
{
}

void
InvariantChecker::sweepDirectory(std::vector<InvariantViolation> &out) const
{
    // Cores whose private (L2) hierarchy actually holds a line, as
    // "{...}" — the sharer-diff half of the diagnostics. Only runs on
    // violations, so the O(cores) scan never costs a clean sweep.
    const auto format_holders = [&](Addr line) {
        std::string holders = "{";
        uint32_t printed = 0;
        for (CoreId c = 0; c < cfg_.numCores && printed <= 16; c++) {
            if (!mem_.cores_[c]->l2.lookup(line))
                continue;
            if (printed < 16)
                appendf(holders, printed ? ",%u" : "%u", c);
            else
                holders += ",...";
            printed++;
        }
        holders += "}";
        return holders;
    };

    mem_.l3_.forEach([&](const L3Line &e) {
        const Addr line = e.line;
        const uint32_t num_sharers = e.sharers.count();
        const auto add = [&](InvariantKind kind, CoreId core,
                             const char *what) {
            InvariantViolation v;
            v.kind = kind;
            v.line = line;
            v.core = core;
            appendf(v.message,
                    "line=0x%llx dir=%s label=%u sharers=%s priv=%s: %s",
                    (unsigned long long)line, dirStateName(e.dir),
                    unsigned(e.label), formatSharers(e.sharers).c_str(),
                    format_holders(line).c_str(), what);
            out.push_back(std::move(v));
        };

        // Sharer-count rules per directory state.
        if (e.dir == DirState::NonCached && num_sharers != 0)
            add(InvariantKind::SharerCountMismatch, kNoCore,
                "NonCached line has sharers");
        if ((e.dir == DirState::S || e.dir == DirState::U) &&
            num_sharers == 0) {
            add(InvariantKind::SharerCountMismatch, kNoCore,
                "S/U line has no sharers");
        }
        if (e.dir == DirState::M && num_sharers != 1)
            add(InvariantKind::ExclusivityViolation, kNoCore,
                "M line must have exactly one owner");

        // Label rules: U lines carry a registered label, others none.
        if (e.dir == DirState::U &&
            (e.label == kNoLabel || e.label >= mem_.labels_.size())) {
            add(InvariantKind::ULabelMismatch, kNoCore,
                "U line with an unregistered label");
        }
        if (e.dir != DirState::U && e.label != kNoLabel)
            add(InvariantKind::ULabelMismatch, kNoCore,
                "non-U line carries a label");

        // Per-sharer: the private hierarchy must agree with the mask.
        e.sharers.forEach([&](CoreId s) {
            if (s >= cfg_.numCores) {
                add(InvariantKind::DirSharerNotPresent, s,
                    "sharer id beyond the machine");
                return;
            }
            const PrivLine *e2 = mem_.cores_[s]->l2.lookup(line);
            if (!e2) {
                add(InvariantKind::DirSharerNotPresent, s,
                    "sharer holds no private copy");
                return;
            }
            switch (e.dir) {
              case DirState::NonCached:
                break; // already reported above
              case DirState::S:
                if (e2->state != PrivState::S) {
                    add(InvariantKind::DirStateMismatch, s,
                        privStateName(e2->state));
                }
                break;
              case DirState::M:
                if (e2->state != PrivState::E &&
                    e2->state != PrivState::M) {
                    add(InvariantKind::ExclusivityViolation, s,
                        privStateName(e2->state));
                }
                break;
              case DirState::U:
                if (e2->state != PrivState::U) {
                    add(InvariantKind::DirStateMismatch, s,
                        privStateName(e2->state));
                } else if (e2->label != e.label) {
                    add(InvariantKind::ULabelMismatch, s,
                        "private U label differs from directory");
                }
                if (!mem_.cores_[s]->uCopies.contains(line)) {
                    add(InvariantKind::UCopyMissing, s,
                        "dir-U sharer holds no U copy");
                }
                break;
            }
        });
    });
}

void
InvariantChecker::sweepPrivate(std::vector<InvariantViolation> &out) const
{
    for (CoreId c = 0; c < cfg_.numCores; c++) {
        const auto &pc = *mem_.cores_[c];
        const auto add = [&](InvariantKind kind, Addr line,
                             const char *what) {
            const PrivLine *l1 = pc.l1.lookup(line);
            const PrivLine *l2 = pc.l2.lookup(line);
            InvariantViolation v;
            v.kind = kind;
            v.line = line;
            v.core = c;
            appendf(v.message, "core=%u line=0x%llx l1=%s l2=%s dir=%s: %s",
                    c, (unsigned long long)line,
                    privStateName(l1 ? l1->state : PrivState::I),
                    privStateName(l2 ? l2->state : PrivState::I),
                    dirStateName(mem_.dirState(line)), what);
            out.push_back(std::move(v));
        };

        // L2 entries: L3 inclusion + directory agreement.
        pc.l2.forEach([&](const PrivLine &v) {
            const L3Line *e = mem_.l3_.lookup(v.line);
            if (!e || e->dir == DirState::NonCached ||
                !e->sharers.test(c)) {
                add(InvariantKind::PrivLineNotInDir, v.line,
                    "private copy untracked by the directory");
                return;
            }
            switch (v.state) {
              case PrivState::I:
                add(InvariantKind::DirStateMismatch, v.line,
                    "valid private entry in state I");
                break;
              case PrivState::S:
                if (e->dir != DirState::S) {
                    add(InvariantKind::DirStateMismatch, v.line,
                        "S copy of a non-dir-S line");
                }
                break;
              case PrivState::E:
              case PrivState::M:
                if (e->dir != DirState::M) {
                    add(InvariantKind::ExclusivityViolation, v.line,
                        "exclusive copy of a non-dir-M line");
                }
                break;
              case PrivState::U:
                if (e->dir != DirState::U) {
                    add(InvariantKind::DirStateMismatch, v.line,
                        "U copy of a non-dir-U line");
                }
                break;
            }
        });

        // L1 entries: inclusion in (and agreement with) the L2.
        pc.l1.forEach([&](const PrivLine &v) {
            const PrivLine *e2 = pc.l2.lookup(v.line);
            if (!e2) {
                add(InvariantKind::InclusionViolation, v.line,
                    "L1 line missing from the inclusive L2");
            } else if (e2->state != v.state || e2->label != v.label) {
                add(InvariantKind::InclusionViolation, v.line,
                    "L1 and L2 disagree on state/label");
            }
        });

        // Reserved-way rule (Sec. III-B4): every set keeps >= 1 non-U
        // way. Report each offending set once (keyed by its lowest U
        // line so a full-U set yields one diagnostic, not ways_ of
        // them).
        const auto check_reserved = [&](const CacheArray<PrivLine> &arr,
                                        const char *level) {
            arr.forEach([&](const PrivLine &v) {
                if (v.state != PrivState::U)
                    return;
                if (arr.countInSet(v.line, isULine) < arr.ways())
                    return;
                bool lowest = true;
                arr.forEach([&](const PrivLine &o) {
                    if (o.state == PrivState::U && o.line < v.line &&
                        o.line % arr.numSets() == v.line % arr.numSets())
                        lowest = false;
                });
                if (!lowest)
                    return;
                InvariantViolation viol;
                viol.kind = InvariantKind::ReservedWayViolation;
                viol.line = v.line;
                viol.core = c;
                appendf(viol.message,
                        "core=%u %s set %llu: all %u ways hold U lines "
                        "(reserved-way rule)",
                        c, level,
                        (unsigned long long)(v.line % arr.numSets()),
                        arr.ways());
                out.push_back(std::move(viol));
            });
        };
        check_reserved(pc.l1, "L1");
        check_reserved(pc.l2, "L2");

        // U copies: every one must be a directory-U sharer's.
        for (Addr line : pc.uCopies.sortedKeys()) {
            const L3Line *e = mem_.l3_.lookup(line);
            if (!e || e->dir != DirState::U || !e->sharers.test(c)) {
                add(InvariantKind::UCopyOrphan, line,
                    "U copy without a dir-U sharer bit");
            }
        }
    }
}

void
InvariantChecker::sweepHtm(std::vector<InvariantViolation> &out) const
{
    if (mem_.handlerDepth_ > 1) {
        InvariantViolation v;
        v.kind = InvariantKind::HandlerDepthExceeded;
        appendf(v.message, "handlerDepth=%u (must be <= 1)",
                mem_.handlerDepth_);
        out.push_back(std::move(v));
    }

    for (CoreId c = 0; c < cfg_.numCores; c++) {
        const HtmManager::Tx &tx = htm_.txs_[c];
        // Doomed-but-active counts as live: under cooperative unwind
        // the doomed transaction keeps executing until it polls its
        // fate, and its accesses legally re-note spec state after
        // remoteAbort's eager release. Only a tx that has finished
        // (active=false) must hold nothing speculative.
        const bool live = tx.active;
        const auto add = [&](InvariantKind kind, Addr line,
                             const char *what) {
            InvariantViolation v;
            v.kind = kind;
            v.line = line;
            v.core = c;
            appendf(v.message,
                    "core=%u line=0x%llx active=%d doomed=%d "
                    "footprint=%zu wb=%zu: %s",
                    c, (unsigned long long)line, int(tx.active),
                    int(tx.doomed), tx.footprint.size(), tx.wb.numLines(),
                    what);
            out.push_back(std::move(v));
        };

        if (!live) {
            // Aborted (or absent) transactions release everything
            // immediately (HtmManager::remoteAbort / abortAttempt).
            if (!tx.footprint.empty() || !tx.wb.empty() ||
                !tx.specLines.empty()) {
                add(InvariantKind::SpecStateLeak, 0,
                    "speculative state outlives its transaction");
            }
        } else {
            // Every buffered write line must have been arbitrated:
            // commit applies wb lines, lazyArbitrate walks the written
            // and labeled lines. A wb line in neither would publish
            // bytes no conflict check ever saw.
            const uint8_t updated =
                specBit(SpecKind::Write) | specBit(SpecKind::Labeled);
            tx.wb.forEach([&](Addr line, const WriteBuffer::Entry &) {
                if (!(tx.kindsOf(line) & updated)) {
                    add(InvariantKind::WriteBufferNotInSet, line,
                        "write-buffer line outside write/labeled sets");
                }
            });
            // The release list holds each footprint line exactly once.
            std::vector<Addr> release = tx.specLines;
            std::sort(release.begin(), release.end());
            if (release != tx.footprint.sortedKeys()) {
                add(InvariantKind::SignatureSetMismatch, 0,
                    "release list disagrees with the footprint");
            }
        }

        // L1 noted/spec bits vs. the footprint (ARCHITECTURE Sec. 6:
        // one line can be in several sets; each noted kind must be
        // tracked, and bits must not outlive the tx).
        static constexpr struct {
            SpecKind kind;
            const char *missing;
        } kNotedKinds[] = {
            {SpecKind::Read, "notedRead line missing from the read set"},
            {SpecKind::Write, "notedWrite line missing from the write set"},
            {SpecKind::Labeled,
             "notedLabeled line missing from the labeled set"},
        };
        mem_.cores_[c]->l1.forEach([&](const PrivLine &v) {
            if (!v.spec() && !v.noted)
                return;
            if (!live) {
                add(InvariantKind::SpecBitsOutsideTx, v.line,
                    "spec/noted bits with no live transaction");
                return;
            }
            const uint8_t unrecorded = v.noted & ~tx.kindsOf(v.line);
            for (const auto &k : kNotedKinds) {
                if (unrecorded & specBit(k.kind))
                    add(InvariantKind::SignatureSetMismatch, v.line,
                        k.missing);
            }
            if ((v.noted & specBit(SpecKind::Read)) && !v.specRead)
                add(InvariantKind::SignatureSetMismatch, v.line,
                    "noted read without specRead");
            if ((v.noted & specBit(SpecKind::Write)) && !v.specWrite)
                add(InvariantKind::SignatureSetMismatch, v.line,
                    "noted write without specWrite");
            if (v.spec() && !v.noted)
                add(InvariantKind::SignatureSetMismatch, v.line,
                    "spec bits never reported to the HTM");
        });
    }
}

uint32_t
InvariantChecker::sweep(std::vector<InvariantViolation> &out) const
{
    const size_t before = out.size();
    sweepDirectory(out);
    sweepPrivate(out);
    sweepHtm(out);
    sweeps_++;
    return uint32_t(out.size() - before);
}

void
InvariantChecker::check(SyncPoint where)
{
    std::vector<InvariantViolation> violations;
    if (sweep(violations) == 0)
        return;
    fprintf(stderr,
            "CommTM invariant check FAILED at %s sync point "
            "(sweep %llu, %zu violation%s):\n",
            syncPointName(where), (unsigned long long)sweeps_,
            violations.size(), violations.size() == 1 ? "" : "s");
    for (const InvariantViolation &v : violations) {
        fprintf(stderr, "  [%s] %s\n", invariantKindName(v.kind),
                v.message.c_str());
    }
    abort();
}

} // namespace commtm
