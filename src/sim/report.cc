/**
 * @file
 * Simulator report assembly, kept apart from the engine coroutines in
 * simulator.cc: the trace-only recorders (per-firing trace events,
 * region and DRAM time series), the per-unit counter file, the
 * wait-for graph and flight-recorder timeline behind a FailureReport,
 * the Chrome-trace writer, and the one hang escalation.
 */

#include <algorithm>
#include <cstdio>

#include "sim/engine.h"

namespace sara::sim {

using dfg::StreamKind;
using dfg::VuKind;

// ---------------------------------------------------------------------------
// Trace recording (only when SimOptions::traceFile is set)
// ---------------------------------------------------------------------------

void
Simulator::recordFiring(const Engine &e, uint64_t start, uint64_t dur,
                        bool skip)
{
    // Per-region activity: cumulative firings per 4x4 fabric region
    // (fringe AGs clamp into the border regions), differentiated into
    // firings/cycle counter tracks at trace-write time.
    int cols = std::max(1, opt_.fabricCols);
    int rows = std::max(1, opt_.fabricRows);
    int rx = std::clamp(e.u->placeX, 0, cols - 1) * 4 / cols;
    int ry = std::clamp(e.u->placeY, 0, rows - 1) * 4 / rows;
    size_t region = static_cast<size_t>(ry * 4 + rx);
    ++regionFirings_[region];
    regionSeries_[region].sample(
        start, static_cast<double>(regionFirings_[region]));

    // Cap the buffer so accidental tracing of a huge run stays sane.
    if (trace_.size() >= (1u << 22))
        return;
    trace_.push_back({e.u->id.v, start, static_cast<uint32_t>(dur),
                      skip});
}

void
Simulator::sampleDram()
{
    uint64_t now = sched_.now();
    dramOutstandingSeries_.sample(now,
                                  static_cast<double>(dramOutstanding_));
    dramBytesSeries_.sample(
        now, static_cast<double>(dram_.bytesTransferred()));
}

// ---------------------------------------------------------------------------
// Counter file
// ---------------------------------------------------------------------------

void
Simulator::buildCounters(SimResult &result) const
{
    telemetry::CounterFile &cf = result.counters;

    for (const auto &e : engines_) {
        if (!e)
            continue;
        const auto &u = *e->u;
        telemetry::CounterBlock &b = cf.block(u.name);
        b.kind = u.kind == VuKind::Compute   ? "pcu"
                 : u.kind == VuKind::MemPort ? "pmu"
                                             : "ag";
        b.x = u.placeX;
        b.y = u.placeY;
        b.set("firings", e->stats.firings);
        b.set("skips", e->stats.skips);
        b.set("busy", e->stats.busyCycles);
        for (int c = 0; c < kNumStallCauses; ++c)
            b.set(std::string("stall.") +
                      stallCauseName(static_cast<StallCause>(c)),
                  e->stats.stallCycles[c]);
        b.set("idle", result.cycles > e->stats.doneAt
                          ? result.cycles - e->stats.doneAt
                          : 0);
        b.set("bytes", e->stats.bytesMoved);
        b.set("occ_peak", 0);
    }

    // FIFO-occupancy high-water per unit: the max over every stream
    // incident to the unit (storage VMUs have no engine and no block).
    for (const auto &f : fifos_) {
        const auto &s = f.spec();
        for (dfg::VuId vid : {s.src, s.dst}) {
            if (!vid.valid())
                continue;
            telemetry::CounterBlock *b =
                cf.findMutable(g_.unit(vid).name);
            if (b && f.highWater() > b->get("occ_peak"))
                b->set("occ_peak", f.highWater());
        }
    }

    // Router cells: aggregate the per-link NoC telemetry per (x, y).
    // linkUse is sorted by (x, y, dir), so blocks come out in
    // deterministic cell order.
    if (result.noc.enabled) {
        for (const auto &lu : result.noc.linkUse) {
            char id[32];
            std::snprintf(id, sizeof id, "router(%d,%d)", lu.link.x,
                          lu.link.y);
            telemetry::CounterBlock &b = cf.block(id);
            b.kind = "router";
            b.x = lu.link.x;
            b.y = lu.link.y;
            b.add("links", 1);
            b.add("streams", static_cast<uint64_t>(lu.streams));
            b.add("traversals", lu.traversals);
            b.add("wait_cycles", lu.waitCycles);
            if (lu.queueHighWater > b.get("queue_peak"))
                b.set("queue_peak", lu.queueHighWater);
        }
    }
}

// ---------------------------------------------------------------------------
// Hang evidence and escalation
// ---------------------------------------------------------------------------

const std::string &
Simulator::waitDetail(const Engine &e) const
{
    static const std::string kNone;
    if (e.blockReason == Engine::kNotStarted)
        return kNone;
    return e.waitStream >= 0 ? g_.stream(dfg::StreamId(e.waitStream)).name
                             : e.u->name;
}

std::vector<fault::WaitNode>
Simulator::buildWaitGraph() const
{
    // Map engine VuId -> index in the blocked list for provider edges.
    std::vector<int> blockedIdx(g_.numUnits(), -1);
    std::vector<const Engine *> blocked;
    for (const auto &e : engines_) {
        if (!e || e->finished)
            continue;
        blockedIdx[e->u->id.index()] = static_cast<int>(blocked.size());
        blocked.push_back(e.get());
    }

    std::vector<fault::WaitNode> nodes;
    nodes.reserve(blocked.size());
    for (const Engine *e : blocked) {
        fault::WaitNode n;
        n.unit = e->u->name;
        for (int c = 0; c < kNumStallCauses; ++c) {
            if (e->stats.stallCycles[c] > 0)
                n.stalls.emplace_back(
                    stallCauseName(static_cast<StallCause>(c)),
                    e->stats.stallCycles[c]);
        }

        dfg::VuId provider;
        switch (e->waitKind) {
          case Engine::WaitKind::StreamData: {
            const auto &s = g_.stream(dfg::StreamId(e->waitStream));
            n.wants = s.kind == StreamKind::Token ? "token" : "data";
            n.resource = s.name;
            provider = s.src;
            break;
          }
          case Engine::WaitKind::StreamSpace: {
            const auto &s = g_.stream(dfg::StreamId(e->waitStream));
            n.wants = "credit";
            n.resource = s.name;
            provider = s.dst; // Credits come back when the dst pops.
            break;
          }
          case Engine::WaitKind::NetInject: {
            const auto &s = g_.stream(dfg::StreamId(e->waitStream));
            n.wants = "link-slot";
            n.resource = noc_ ? noc_->firstLinkSite(s.id) : s.name;
            provider = s.dst; // The link drains toward the consumer.
            break;
          }
          case Engine::WaitKind::DramWindow:
            n.wants = "dram-response";
            n.resource = e->u->name;
            break;
          case Engine::WaitKind::DramDrain:
            n.wants = "dram-drain";
            n.resource = e->u->name;
            break;
          case Engine::WaitKind::None:
            n.wants = *e->blockReason ? e->blockReason : "unknown";
            n.resource = waitDetail(*e);
            break;
        }
        if (provider.valid()) {
            size_t pi = provider.index();
            if (blockedIdx[pi] >= 0)
                n.provider = blockedIdx[pi];
            else if (engines_[pi] && engines_[pi]->finished)
                n.providerFinished = true;
            // Storage VMUs have no engine: external provider (-1).
        }
        nodes.push_back(std::move(n));
    }
    return nodes;
}

void
Simulator::buildTimeline(fault::FailureReport &fr) const
{
    auto unitName = [&](int32_t id) -> std::string {
        if (id < 0 || static_cast<size_t>(id) >= g_.numUnits())
            return "?";
        return g_.unit(dfg::VuId(id)).name;
    };
    auto streamName = [&](int32_t id) -> std::string {
        if (id < 0 || static_cast<size_t>(id) >= g_.numStreams())
            return "?";
        return g_.stream(dfg::StreamId(id)).name;
    };

    for (const auto &ev : flight_.events()) {
        fault::TimelineEvent te;
        te.cycle = ev.at;
        te.kind = telemetry::flightKindName(ev.kind);
        switch (ev.kind) {
          case telemetry::FlightKind::Fire:
            te.detail = unitName(ev.a) + " (" + std::to_string(ev.b) +
                        " cyc)";
            break;
          case telemetry::FlightKind::Skip:
            te.detail = unitName(ev.a);
            break;
          case telemetry::FlightKind::Park:
            te.detail = unitName(ev.a) +
                        (ev.b >= 0 ? " on " + streamName(ev.b)
                                   : " on dram");
            break;
          case telemetry::FlightKind::Wake:
            te.detail = unitName(ev.a) + (ev.b ? " (spurious)" : "");
            break;
          case telemetry::FlightKind::LinkGrant:
            te.detail = streamName(ev.a) + " @ " +
                        (noc_ ? noc_->linkSite(ev.b) : "?");
            break;
          case telemetry::FlightKind::Deliver:
            te.detail = streamName(ev.a);
            break;
        }
        fr.timeline.push_back(std::move(te));
    }
    fr.timelineDropped = flight_.totalRecorded() > flight_.size()
                             ? flight_.totalRecorded() - flight_.size()
                             : 0;
}

void
Simulator::writeTrace(const fault::FailureReport *failure) const
{
    // One unified timeline: compile phases (pid 0, wall-clock µs),
    // engine firings (pid 1, one thread lane per unit, 1 cycle = 1 µs),
    // and DRAM counter tracks (pid 1).
    telemetry::ChromeTraceWriter w(opt_.traceFile);
    if (!w.ok())
        return;

    constexpr int kCompilePid = 0, kSimPid = 1;
    if (opt_.compileSpans && !opt_.compileSpans->empty()) {
        w.processName(kCompilePid, "compile (wall clock)");
        for (const auto &span : *opt_.compileSpans) {
            w.complete(kCompilePid, span.depth, span.name,
                       span.startMs * 1e3, span.durMs * 1e3);
        }
    }

    w.processName(kSimPid, "simulation (cycles)");
    for (const auto &e : engines_) {
        if (!e)
            continue;
        w.threadName(kSimPid, e->u->id.v, e->u->name);
    }
    for (const auto &ev : trace_) {
        const auto &u = g_.unit(dfg::VuId(ev.unit));
        w.complete(kSimPid, ev.unit,
                   ev.skip ? u.name + " (skip)" : u.name,
                   static_cast<double>(ev.start),
                   static_cast<double>(ev.dur));
    }
    for (const auto &[t, v] : dramOutstandingSeries_.samples())
        w.counter(kSimPid, "dram-outstanding", static_cast<double>(t),
                  "requests", v);
    // Differentiate the cumulative byte counter into a bandwidth track.
    uint64_t prevT = 0;
    double prevBytes = 0.0;
    for (const auto &[t, v] : dramBytesSeries_.samples()) {
        if (t > prevT)
            w.counter(kSimPid, "dram-bandwidth", static_cast<double>(t),
                      "bytes/cycle",
                      (v - prevBytes) / static_cast<double>(t - prevT));
        prevT = t;
        prevBytes = v;
    }
    // Per-region fabric activity: cumulative firings per 4x4 region,
    // differentiated into firings/cycle tracks.
    for (int i = 0; i < 16; ++i) {
        if (regionSeries_[i].empty())
            continue;
        char name[32];
        std::snprintf(name, sizeof name, "region(%d,%d)", i % 4, i / 4);
        uint64_t rPrevT = 0;
        double rPrev = 0.0;
        for (const auto &[t, v] : regionSeries_[i].samples()) {
            if (t > rPrevT)
                w.counter(kSimPid, name, static_cast<double>(t),
                          "firings/cycle",
                          (v - rPrev) / static_cast<double>(t - rPrevT));
            rPrevT = t;
            rPrev = v;
        }
    }
    // Link-load tracks (empty without the NoC): flits inside the
    // network and links with a queued flit, sampled on every
    // inject/deliver transition.
    for (const auto &[t, v] : nocLoadSeries_.samples())
        w.counter(kSimPid, "noc-link-load", static_cast<double>(t),
                  "flits", v);
    for (const auto &[t, v] : nocBusySeries_.samples())
        w.counter(kSimPid, "noc-busy-links", static_cast<double>(t),
                  "links", v);
    if (failure) {
        // Failure annotation: one classification marker plus an
        // instant on each blocked engine's lane at the hang cycle.
        w.instant(kSimPid, 0,
                  std::string("HANG: ") +
                      fault::hangClassName(failure->cls),
                  static_cast<double>(failure->atCycle));
        for (const auto &e : engines_) {
            if (!e || e->finished)
                continue;
            w.instant(kSimPid, e->u->id.v,
                      "blocked: " + std::string(e->blockReason) + " [" +
                          waitDetail(*e) + "]",
                      static_cast<double>(failure->atCycle));
        }
    }

    size_t events = w.eventsWritten();
    w.close();
    inform("wrote ", events, " trace events to ", opt_.traceFile);
}

void
Simulator::escalate(HangCause cause)
{
    // Every hang leaves through here: classify the wait-for graph over
    // the unfinished engines, attach the flight-recorder timeline,
    // flush the trace (the timeline up to the hang is the evidence),
    // log like panic(), and throw the structured report — a
    // PanicError, so callers map it to exit 4.
    fault::FailureReport fr =
        fault::classify(buildWaitGraph(), opt_.fault, sched_.now());
    if (cause != HangCause::Drained) {
        // The cycle budget is a livelock tripwire and a cancel is an
        // external watchdog: either way events were still pending, so
        // the run was live and a wait-for cycle in this mid-flight
        // snapshot is transient (the wanted data may still be in the
        // network). Report starvation-livelock, never deadlock; an
        // injected-fault attribution stands — a permanent fault can
        // burn the budget.
        fr.budgetExceeded = cause == HangCause::Budget;
        if (fr.budgetExceeded)
            fr.budget = opt_.maxCycles;
        fr.cancelled = cause == HangCause::Cancelled;
        if (fr.cls == fault::HangClass::Deadlock) {
            fr.cls = fault::HangClass::Starvation;
            fr.cycle.clear();
        }
    }
    buildTimeline(fr);
    if (!opt_.traceFile.empty())
        writeTrace(&fr);
    detail::logMessage(LogLevel::Error, "panic", fr.str());
    throw fault::HangError(std::move(fr));
}

} // namespace sara::sim
