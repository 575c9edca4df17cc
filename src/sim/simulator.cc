#include "sim/simulator.h"

#include <algorithm>
#include <cmath>

#include "ir/interp.h"
#include "sim/engine.h"

namespace sara::sim {

using dfg::AccessDir;
using dfg::InputRole;
using dfg::StreamKind;
using dfg::VuKind;

namespace {

bool
isArith(ir::OpKind kind)
{
    switch (kind) {
      case ir::OpKind::Const:
      case ir::OpKind::Iter:
        return false;
      default:
        return true;
    }
}

} // namespace

const char *
stallCauseName(StallCause cause)
{
    switch (cause) {
      case StallCause::InputData: return "input-data";
      case StallCause::CmmcToken: return "cmmc-token";
      case StallCause::Credit: return "credit";
      case StallCause::DramLatency: return "dram-latency";
      case StallCause::BankConflict: return "bank-conflict";
      case StallCause::BusContention: return "bus-contention";
      case StallCause::Network: return "network";
    }
    return "?";
}

const char *
wakeClassName(WakeClass cls)
{
    switch (cls) {
      case WakeClass::FifoData: return "fifo-data";
      case WakeClass::FifoSpace: return "fifo-space";
      case WakeClass::NocInject: return "noc-inject";
      case WakeClass::Dram: return "dram";
    }
    return "?";
}

Simulator::Simulator(const ir::Program &program, const dfg::Vudfg &graph,
                     dram::DramSpec dramSpec, SimOptions options)
    : p_(program), g_(graph), opt_(options), dram_(std::move(dramSpec))
{
    buildState();
}

Simulator::~Simulator() = default;

void
Simulator::buildState()
{
    g_.validate();
    flight_.reset(opt_.flightDepth);

    if (opt_.useNoc) {
        noc_ = std::make_unique<noc::NocModel>(sched_, opt_.noc);
        noc_->setFaultInjector(opt_.fault);
        noc_->setFlightRecorder(flight_.enabled() ? &flight_ : nullptr);
        if (!opt_.traceFile.empty())
            noc_->setLoadSeries(&nocLoadSeries_, &nocBusySeries_);
        for (size_t i = 0; i < g_.numStreams(); ++i)
            noc_->registerStream(g_.stream(dfg::StreamId(i)));
    }

    fifos_.resize(g_.numStreams());
    for (size_t i = 0; i < g_.numStreams(); ++i)
        fifos_[i].init(sched_, g_.stream(dfg::StreamId(i)), noc_.get(),
                       opt_.fault, &pool_,
                       flight_.enabled() ? &flight_ : nullptr);

    // Memory groups.
    for (const auto &u : g_.units()) {
        if (u.kind != VuKind::Memory)
            continue;
        auto &grp = groups_[u.tensor.v];
        grp.tensor = u.tensor;
        grp.interleave = u.shardInterleave;
        grp.numShards = u.numShards;
        grp.shards.push_back(u.id);
    }
    for (auto &[tid, grp] : groups_) {
        std::sort(grp.shards.begin(), grp.shards.end(),
                  [&](dfg::VuId a, dfg::VuId b) {
                      return g_.unit(a).shardIndex < g_.unit(b).shardIndex;
                  });
        SARA_ASSERT(static_cast<int>(grp.shards.size()) == grp.numShards,
                    "tensor ", tid, " group has ", grp.shards.size(),
                    " shards, expected ", grp.numShards);
        grp.state.resize(grp.shards.size());
        for (size_t s = 0; s < grp.shards.size(); ++s) {
            const auto &vmu = g_.unit(grp.shards[s]);
            grp.state[s].buffers.assign(
                vmu.bufferDepth,
                std::vector<double>(vmu.bufferSize, 0.0));
        }
    }

    // DRAM backing store.
    dramData_.resize(p_.numTensors());
    for (size_t t = 0; t < p_.numTensors(); ++t) {
        const auto &tensor = p_.tensor(ir::TensorId(t));
        if (tensor.space == ir::MemSpace::Dram)
            dramData_[t].assign(tensor.size, 0.0);
    }

    // Engines.
    engines_.resize(g_.numUnits());
    for (const auto &u : g_.units()) {
        if (u.kind == VuKind::Memory)
            continue;
        auto e = std::make_unique<Engine>();
        e->u = &u;
        e->n = u.chainSize();
        e->vec = u.vec();
        e->inputsAt.resize(e->n + 1);
        e->predsAt.resize(e->n + 1);
        e->gatesAt.resize(e->n + 1);
        e->outputsAt.resize(e->n + 1);
        e->whileCondOf.assign(e->n + 1, -1);
        for (size_t i = 0; i < u.inputs.size(); ++i) {
            const auto &in = u.inputs[i];
            if (in.role == InputRole::WhileCond) {
                SARA_ASSERT(in.level >= 1, "while cond at level 0");
                e->whileCondOf[in.level - 1] = static_cast<int>(i);
                continue;
            }
            e->inputsAt[in.level].push_back(static_cast<int>(i));
            if (in.role == InputRole::Predicate)
                e->predsAt[in.level].push_back(static_cast<int>(i));
            if (in.role == InputRole::Gate)
                e->gatesAt[in.level].push_back(static_cast<int>(i));
            if (in.role == InputRole::Operand)
                e->operandBindings.push_back(static_cast<int>(i));
        }
        for (size_t i = 0; i < u.outputs.size(); ++i) {
            if (u.kind != VuKind::Compute &&
                static_cast<int>(i) == u.respOutput)
                continue; // Pushed directly by apply.
            e->outputsAt[u.outputs[i].level].push_back(static_cast<int>(i));
        }
        e->val.assign(e->n, 0);
        e->curMin.assign(e->n, 0);
        e->curStep.assign(e->n, 1);
        e->curMax.assign(e->n, 0);
        e->lv.assign(u.lops.size() * e->vec, 0.0);
        e->redAcc.assign(u.lops.size() * e->vec, 0.0);
        for (const auto &lop : u.lops) {
            if (ir::isReduceOp(lop.kind) || (!lop.isStreamIn() &&
                                             isArith(lop.kind)))
                ++e->arithLops;
        }
        if (u.kind == VuKind::MemPort) {
            auto it = groups_.find(u.tensor.v);
            SARA_ASSERT(it != groups_.end(), u.name, ": no memory group");
            e->group = &it->second;
        }
        e->agCv.bind(sched_);
        e->arbCv.bind(sched_);
        e->sim = this;
        engines_[u.id.index()] = std::move(e);
    }
}

void
Simulator::setDramTensor(ir::TensorId id, std::vector<double> data)
{
    SARA_ASSERT(p_.tensor(id).space == ir::MemSpace::Dram,
                "setDramTensor on on-chip tensor ", p_.tensor(id).name);
    SARA_ASSERT(data.size() == static_cast<size_t>(p_.tensor(id).size),
                "tensor size mismatch");
    dramData_[id.index()] = std::move(data);
}

std::pair<size_t, int64_t>
Simulator::locate(const MemGroup &grp, int64_t logical) const
{
    // Block partitioning: shard s holds [s*interleave, (s+1)*interleave).
    if (grp.numShards == 1)
        return {0, logical};
    int64_t shard = std::min<int64_t>(logical / grp.interleave,
                                      grp.numShards - 1);
    return {static_cast<size_t>(shard), logical - shard * grp.interleave};
}

// ---------------------------------------------------------------------------
// Engine coroutines
// ---------------------------------------------------------------------------

Task
Simulator::awaitNonEmpty(Engine &e, FifoState &f, StallCause cause,
                         const char *why)
{
    if (f.empty())
        return blockUntilNonEmpty(e, f, cause, why);
    e.unpark();
    return {};
}

Task
Simulator::awaitSpace(Engine &e, FifoState &f, StallCause cause,
                      const char *why)
{
    if (!f.hasSpace() || !f.canInject())
        return blockUntilSpace(e, f, cause, why);
    e.unpark();
    return {};
}

Task
Simulator::blockUntilNonEmpty(Engine &e, FifoState &f, StallCause cause,
                              const char *why)
{
    while (f.empty()) {
        e.parkOn(Engine::WaitKind::StreamData, f.spec().id.v, why);
        uint64_t blockedAt = sched_.now();
        co_await f.dataCv.wait();
        noteWake(e, WakeClass::FifoData, f.empty());
        e.stats.stallCycles[static_cast<int>(cause)] +=
            sched_.now() - blockedAt;
    }
    e.unpark();
}

Task
Simulator::blockUntilSpace(Engine &e, FifoState &f, StallCause cause,
                           const char *why)
{
    // Two independent admission gates, each with its own attribution:
    // the end-to-end credit window (consumer backpressure -> `cause`,
    // normally Credit) and, on NoC runs, the first-hop link buffer
    // (network contention -> Network). Both are re-checked after every
    // wakeup; the cycles blocked on each gate are disjoint.
    while (true) {
        if (!f.hasSpace()) {
            e.parkOn(Engine::WaitKind::StreamSpace, f.spec().id.v, why);
            uint64_t blockedAt = sched_.now();
            co_await f.spaceCv.wait();
            noteWake(e, WakeClass::FifoSpace, !f.hasSpace());
            e.stats.stallCycles[static_cast<int>(cause)] +=
                sched_.now() - blockedAt;
            continue;
        }
        if (!f.canInject()) {
            e.parkOn(Engine::WaitKind::NetInject, f.spec().id.v,
                     "link busy");
            uint64_t blockedAt = sched_.now();
            co_await f.injectCv().wait();
            noteWake(e, WakeClass::NocInject,
                     !f.hasSpace() || !f.canInject());
            e.stats.stallCycles[static_cast<int>(
                StallCause::Network)] += sched_.now() - blockedAt;
            continue;
        }
        break;
    }
    e.unpark();
}

Task
Simulator::runUnit(Engine &e)
{
    try {
        co_await runLevel(e, 0);
        e.finished = true;
        e.stats.doneAt = sched_.now();
    } catch (const std::exception &ex) {
        e.error = ex.what();
        e.finished = false;
    }
}

Task
Simulator::runLevel(Engine &e, int k)
{
    const auto &u = *e.u;

    // Resolve dynamic bounds before reading predicates: bound streams
    // are produced unconditionally relative to this loop.
    if (k < e.n) {
        const auto &c = u.counters[k];
        e.curMin[k] = c.min;
        e.curStep[k] = c.step;
        e.curMax[k] = c.max;
        const int boundInput[3] = {c.minInput, c.stepInput, c.maxInput};
        int64_t *boundSlot[3] = {&e.curMin[k], &e.curStep[k],
                                 &e.curMax[k]};
        for (int b = 0; b < 3; ++b) {
            if (boundInput[b] < 0)
                continue;
            auto &f = fifos_[u.inputs[boundInput[b]].stream.index()];
            co_await awaitNonEmpty(e, f, StallCause::InputData,
                                   "loop bound");
            *boundSlot[b] = std::llround(f.front()[0]);
        }
    }

    // Branch predicates conditioning rounds of level k. All are read
    // (they are produced unconditionally); any mismatch skips the round.
    bool enabled = true;
    for (int bi : e.predsAt[k]) {
        auto &f = fifos_[u.inputs[bi].stream.index()];
        co_await awaitNonEmpty(e, f, StallCause::InputData,
                               "branch predicate");
        bool v = f.front()[0] != 0.0;
        if (v != u.inputs[bi].expectTrue)
            enabled = false;
    }
    if (!enabled) {
        co_await skipRound(e, k);
        co_return;
    }

    // CMMC gate tokens for this level must be present before the round
    // may proceed (popped at wrap).
    for (int bi : e.gatesAt[k]) {
        auto &f = fifos_[u.inputs[bi].stream.index()];
        co_await awaitNonEmpty(e, f, StallCause::CmmcToken, "CMMC token");
    }

    if (k == e.n) {
        co_await fireOnce(e);
        co_return;
    }

    // Reduction accumulators over this loop reset at round entry.
    for (size_t i = 0; i < u.lops.size(); ++i) {
        const auto &lop = u.lops[i];
        if (ir::isReduceOp(lop.kind) && lop.counter == k) {
            for (int l = 0; l < e.vec; ++l)
                e.redAcc[i * e.vec + l] = ir::reduceIdentity(lop.kind);
        }
    }

    const auto &c = u.counters[k];
    if (c.isWhile) {
        SARA_ASSERT(e.whileCondOf[k] >= 0,
                    u.name, ": while counter without condition input");
        auto &condFifo =
            fifos_[u.inputs[e.whileCondOf[k]].stream.index()];
        uint64_t round = 0;
        while (true) {
            e.val[k] = static_cast<int64_t>(round);
            co_await runLevel(e, k + 1);
            co_await awaitNonEmpty(e, condFifo, StallCause::InputData,
                                   "while condition");
            bool cont = condFifo.front()[0] != 0.0;
            condFifo.pop();
            if (++round > opt_.maxWhileRounds)
                fatal(u.name, ": do-while exceeded ", opt_.maxWhileRounds,
                      " rounds");
            if (!cont)
                break;
        }
    } else {
        int64_t stepMul = (k == e.n - 1) ? c.vec : 1;
        for (int64_t v = e.curMin[k]; v < e.curMax[k];
             v += e.curStep[k] * stepMul) {
            e.val[k] = v;
            if (k == e.n - 1) {
                int64_t remaining =
                    (e.curMax[k] - v + e.curStep[k] - 1) / e.curStep[k];
                e.activeLanes = static_cast<int>(
                    std::min<int64_t>(c.vec, remaining));
            }
            co_await runLevel(e, k + 1);
        }
    }

    co_await wrapActions(e, k);
}

Task
Simulator::fireOnce(Engine &e)
{
    const auto &u = *e.u;

    // All operand inputs must be readable (front is read per firing
    // regardless of pop level).
    for (int bi : e.operandBindings) {
        auto &f = fifos_[u.inputs[bi].stream.index()];
        co_await awaitNonEmpty(e, f, StallCause::InputData, "operand");
    }

    evalLops(e);

    uint64_t extraCycles = 0;
    if (u.kind == VuKind::MemPort)
        co_await applyMemPort(e, extraCycles);
    else if (u.kind == VuKind::Ag)
        co_await applyAg(e);

    co_await wrapActions(e, e.n);

    const uint64_t now = sched_.now();
    if (e.stats.firings == 0)
        e.stats.firstFire = now;
    e.stats.lastFire = now;
    ++e.stats.firings;
    // Lane serialization from bank conflicts is accounted as a stall,
    // not useful occupancy: the firing itself is one busy cycle.
    e.stats.busyCycles += 1;
    e.stats.stallCycles[static_cast<int>(StallCause::BankConflict)] +=
        extraCycles;
    flight_.record(telemetry::FlightKind::Fire, now, e.u->id.v,
                   static_cast<int32_t>(1 + extraCycles));
    if (!opt_.traceFile.empty())
        recordFiring(e, now, 1 + extraCycles, false);
    e.flops += static_cast<uint64_t>(e.arithLops) * e.activeLanes;
    co_await sched_.delay(1 + extraCycles);
}

Task
Simulator::skipRound(Engine &e, int k)
{
    const auto &u = *e.u;
    // Wait for this level's gate tokens so forwarding preserves order.
    for (int bi : e.gatesAt[k]) {
        auto &f = fifos_[u.inputs[bi].stream.index()];
        co_await awaitNonEmpty(e, f, StallCause::CmmcToken,
                               "CMMC token (skip)");
    }
    co_await wrapActions(e, k);
    // A read engine skipped at firing granularity still owes its
    // consumer one response element per firing (the consumer, skipped
    // under the same predicate, pops and discards it).
    if (k == e.n && u.respOutput >= 0 && u.dir == AccessDir::Read &&
        (u.kind == VuKind::MemPort || u.kind == VuKind::Ag)) {
        auto &f = fifos_[u.outputs[u.respOutput].stream.index()];
        co_await awaitSpace(e, f, StallCause::Credit,
                            "skip response space");
        f.push(pool_.acquireZeroed(
            static_cast<size_t>(std::max(1, e.activeLanes))));
    }
    ++e.stats.skips;
    e.stats.busyCycles += 1;
    flight_.record(telemetry::FlightKind::Skip, sched_.now(), e.u->id.v);
    if (!opt_.traceFile.empty())
        recordFiring(e, sched_.now(), 1, true);
    co_await sched_.delay(1);
}

Task
Simulator::wrapActions(Engine &e, int k)
{
    const auto &u = *e.u;

    // A store AG's wrap-level tokens are CMMC acknowledgements: they
    // must only fire once every issued write has reached DRAM.
    if (u.kind == VuKind::Ag && u.dir == AccessDir::Write && k < e.n &&
        !e.outputsAt[k].empty()) {
        while (e.outstanding > 0) {
            e.parkOn(Engine::WaitKind::DramDrain, -1, "DRAM write drain");
            uint64_t blockedAt = sched_.now();
            co_await e.agCv.wait();
            noteWake(e, WakeClass::Dram, e.outstanding > 0);
            e.stats.stallCycles[static_cast<int>(
                StallCause::DramLatency)] += sched_.now() - blockedAt;
        }
        e.unpark();
    }

    for (int oi : e.outputsAt[k]) {
        const auto &ob = u.outputs[oi];
        auto &f = fifos_[ob.stream.index()];
        co_await awaitSpace(e, f, StallCause::Credit, "output space");
        if (f.spec().kind == StreamKind::Token) {
            f.push(Element{});
        } else if (k == e.n) {
            f.push(perFiringElement(e, ob));
        } else {
            Element one = pool_.acquire(1);
            one[0] = combinedOutputValue(e, ob);
            f.push(std::move(one));
        }
    }

    for (int bi : e.inputsAt[k]) {
        auto &f = fifos_[u.inputs[bi].stream.index()];
        // Zero-trip and skipped rounds reach the wrap without any
        // firing having awaited round-rate operands; the element is
        // owed (rates are balanced) but may still be in flight.
        co_await awaitNonEmpty(e, f, StallCause::InputData, "wrap pop");
        f.pop();
    }

    if (u.kind == VuKind::MemPort && u.rotateLevel == k) {
        const auto &vmu = g_.unit(u.memUnit);
        e.bufPtr = (e.bufPtr + 1) % vmu.bufferDepth;
    }
}

// ---------------------------------------------------------------------------
// Datapath evaluation and memory application
// ---------------------------------------------------------------------------

void
Simulator::evalLops(Engine &e)
{
    const auto &u = *e.u;
    const int vec = e.vec;
    const int lanes = e.activeLanes;
    double args[3];

    for (size_t i = 0; i < u.lops.size(); ++i) {
        const auto &lop = u.lops[i];
        double *out = &e.lv[i * vec];
        if (lop.isStreamIn()) {
            const auto &in = u.inputs[lop.input];
            const auto &elem = fifos_[in.stream.index()].front();
            if (elem.size() == 1) {
                for (int l = 0; l < lanes; ++l)
                    out[l] = elem[0];
            } else {
                SARA_ASSERT(elem.size() >= static_cast<size_t>(lanes),
                            u.name, ": stream element lanes ",
                            elem.size(), " < active ", lanes);
                for (int l = 0; l < lanes; ++l)
                    out[l] = elem[l];
            }
            continue;
        }
        switch (lop.kind) {
          case ir::OpKind::Const:
            for (int l = 0; l < lanes; ++l)
                out[l] = lop.cval;
            break;
          case ir::OpKind::Iter: {
            int64_t base = e.val[lop.counter];
            if (lop.counter == e.n - 1 && vec > 1) {
                int64_t step = e.curStep[lop.counter];
                for (int l = 0; l < lanes; ++l)
                    out[l] = static_cast<double>(base + l * step);
            } else {
                for (int l = 0; l < lanes; ++l)
                    out[l] = static_cast<double>(base);
            }
            break;
          }
          case ir::OpKind::RedAdd:
          case ir::OpKind::RedMin:
          case ir::OpKind::RedMax:
          case ir::OpKind::RedMul: {
            double *acc = &e.redAcc[i * vec];
            const double *src = &e.lv[lop.a * vec];
            for (int l = 0; l < lanes; ++l) {
                acc[l] = ir::reduceCombine(lop.kind, acc[l], src[l]);
                out[l] = acc[l];
            }
            break;
          }
          default:
            for (int l = 0; l < lanes; ++l) {
                args[0] = lop.a >= 0 ? e.lv[lop.a * vec + l] : 0.0;
                args[1] = lop.b >= 0 ? e.lv[lop.b * vec + l] : 0.0;
                args[2] = lop.c >= 0 ? e.lv[lop.c * vec + l] : 0.0;
                out[l] = ir::evalScalar(lop.kind, args);
            }
            break;
        }
    }
}

double
Simulator::combinedOutputValue(Engine &e, const dfg::OutputBinding &ob)
{
    const auto &u = *e.u;
    const auto &lop = u.lops[ob.lop];
    const int vec = e.vec;
    if (ir::isReduceOp(lop.kind)) {
        double acc = e.redAcc[ob.lop * vec];
        for (int l = 1; l < vec; ++l)
            acc = ir::reduceCombine(lop.kind, acc, e.redAcc[ob.lop * vec + l]);
        return acc;
    }
    int lane = std::max(0, e.activeLanes - 1);
    return e.lv[ob.lop * vec + lane];
}

Element
Simulator::perFiringElement(Engine &e, const dfg::OutputBinding &ob)
{
    Element elem = pool_.acquire(static_cast<size_t>(e.activeLanes));
    for (int l = 0; l < e.activeLanes; ++l)
        elem[l] = e.lv[ob.lop * e.vec + l];
    return elem;
}

Task
Simulator::applyMemPort(Engine &e, uint64_t &extraCycles)
{
    const auto &u = *e.u;
    MemGroup &grp = *e.group;
    const int lanes = e.activeLanes;
    // Every port firing moves one element per active lane.
    e.stats.bytesMoved += static_cast<uint64_t>(lanes) * 4;

    // Address lanes come from the local datapath or an input stream.
    int64_t addrs[64];
    SARA_ASSERT(lanes <= 64, "lane count too large");
    if (u.addrLop >= 0) {
        for (int l = 0; l < lanes; ++l)
            addrs[l] = std::llround(e.lv[u.addrLop * e.vec + l]);
    } else {
        const auto &elem =
            fifos_[u.inputs[u.addrInput].stream.index()].front();
        for (int l = 0; l < lanes; ++l)
            addrs[l] = std::llround(elem.size() == 1 ? elem[0] : elem[l]);
    }

    // Timing: vector accesses with unit stride are conflict-free;
    // otherwise lanes colliding on a bank (static sharding) or a shard
    // (dynamic banking) serialize.
    const auto &pmuBanks = 16; // Matches arch::PmuSpec::banks.
    bool contiguous = true;
    for (int l = 1; l < lanes; ++l)
        if (addrs[l] != addrs[l - 1] + 1)
            contiguous = false;
    if (!contiguous && lanes > 1) {
        int counts[64] = {0};
        int maxCount = 1;
        for (int l = 0; l < lanes; ++l) {
            int bank = static_cast<int>(
                ((addrs[l] % pmuBanks) + pmuBanks) % pmuBanks);
            maxCount = std::max(maxCount, ++counts[bank]);
        }
        extraCycles = static_cast<uint64_t>(maxCount - 1);
    }

    // Port-bus contention: a PMU applies one read and one write vector
    // per cycle (static ports only; dynamic groups pay conflicts).
    // Same-cycle requests from sibling ports are granted by the
    // end-of-cycle arbiter in unit-id order — a deterministic hardware
    // arbiter — so the grant sequence is independent of the host event
    // interleave.
    if (!u.dynamicBank) {
        auto &ss = grp.state[u.shardIndex];
        e.busSlot = (u.dir == AccessDir::Read) ? &ss.readBusFree
                                               : &ss.writeBusFree;
        e.busExtra = extraCycles;
        e.blockReason = "PMU bus";
        e.waitStream = -1;
        uint64_t blockedAt = sched_.now();
        arbBus_.push_back(&e);
        armArbiter();
        co_await e.arbCv.wait();
        if (e.arbResultAt > sched_.now())
            co_await sched_.delay(e.arbResultAt - sched_.now());
        e.stats.stallCycles[static_cast<int>(StallCause::BusContention)] +=
            sched_.now() - blockedAt;
        e.blockReason = "";
    }

    if (u.dir == AccessDir::Read) {
        Element out = pool_.acquire(static_cast<size_t>(lanes));
        for (int l = 0; l < lanes; ++l) {
            auto [shard, offset] = locate(grp, addrs[l]);
            if (!u.dynamicBank)
                SARA_ASSERT(static_cast<int>(shard) == u.shardIndex,
                            u.name, ": static port touched shard ", shard,
                            " (expected ", u.shardIndex, ") addr ",
                            addrs[l]);
            auto &ss = grp.state[shard];
            const auto &vmu = g_.unit(grp.shards[shard]);
            int buf = e.bufPtr % vmu.bufferDepth;
            SARA_ASSERT(offset >= 0 && offset < vmu.bufferSize,
                        u.name, ": shard offset OOB ", offset);
            out[l] = ss.buffers[buf][offset];
        }
        SARA_ASSERT(u.respOutput >= 0, u.name, ": read port w/o output");
        auto &f = fifos_[u.outputs[u.respOutput].stream.index()];
        co_await awaitSpace(e, f, StallCause::Credit,
                            "read response space");
        f.push(std::move(out));
    } else {
        SARA_ASSERT(u.dataInput >= 0, u.name, ": write port w/o data");
        const auto &data =
            fifos_[u.inputs[u.dataInput].stream.index()].front();
        for (int l = 0; l < lanes; ++l) {
            auto [shard, offset] = locate(grp, addrs[l]);
            if (!u.dynamicBank)
                SARA_ASSERT(static_cast<int>(shard) == u.shardIndex,
                            u.name, ": static port touched shard ", shard,
                            " (expected ", u.shardIndex, ") addr ",
                            addrs[l]);
            auto &ss = grp.state[shard];
            const auto &vmu = g_.unit(grp.shards[shard]);
            int buf = e.bufPtr % vmu.bufferDepth;
            SARA_ASSERT(offset >= 0 && offset < vmu.bufferSize,
                        u.name, ": shard offset OOB ", offset);
            ss.buffers[buf][offset] =
                data.size() == 1 ? data[0] : data[l];
            ss.lastWriteBuf = buf;
        }
    }
}

Task
Simulator::applyAg(Engine &e)
{
    const auto &u = *e.u;
    while (e.outstanding >= opt_.agOutstanding) {
        e.parkOn(Engine::WaitKind::DramWindow, -1,
                 "DRAM outstanding limit");
        uint64_t blockedAt = sched_.now();
        co_await e.agCv.wait();
        noteWake(e, WakeClass::Dram,
                 e.outstanding >= opt_.agOutstanding);
        e.stats.stallCycles[static_cast<int>(StallCause::DramLatency)] +=
            sched_.now() - blockedAt;
    }
    e.unpark();

    const int lanes = e.activeLanes;
    int64_t addrs[64];
    SARA_ASSERT(lanes <= 64, "lane count too large");
    if (u.addrLop >= 0) {
        for (int l = 0; l < lanes; ++l)
            addrs[l] = std::llround(e.lv[u.addrLop * e.vec + l]);
    } else {
        const auto &elem =
            fifos_[u.inputs[u.addrInput].stream.index()].front();
        for (int l = 0; l < lanes; ++l)
            addrs[l] = std::llround(elem.size() == 1 ? elem[0] : elem[l]);
    }

    auto &data = dramData_[u.tensor.index()];
    const uint64_t tensorBase =
        static_cast<uint64_t>(u.tensor.index()) << 24; // Distinct regions.

    // Coalesce consecutive addresses into bursts, then hand them to
    // the end-of-cycle DRAM arbiter: same-cycle accesses from
    // different AGs hit the channel model in unit-id order regardless
    // of the host event interleave. The engine suspends and resumes
    // within the same cycle, so timing matches an AG that issued its
    // request combinationally and got the arbitrated completion back.
    e.stagedBursts.clear();
    int runStart = 0;
    for (int l = 1; l <= lanes; ++l) {
        if (l == lanes || addrs[l] != addrs[l - 1] + 1) {
            uint32_t bytes = static_cast<uint32_t>(l - runStart) * 4;
            e.stagedBursts.emplace_back(
                tensorBase + static_cast<uint64_t>(addrs[runStart]) * 4,
                bytes);
            e.stats.bytesMoved += bytes;
            runStart = l;
        }
    }
    e.blockReason = "DRAM arbitration";
    e.waitStream = -1;
    arbDram_.push_back(&e);
    armArbiter();
    co_await e.arbCv.wait();
    e.blockReason = "";
    uint64_t maxComplete = e.arbResultAt;

    // Injected DRAM faults: a timeout drops this access's completion
    // (and, for reads, the response element) forever; a tail spike
    // just stretches the completion time.
    bool timedOut = false;
    if (opt_.fault) {
        if (opt_.fault->dramTimeout(u.name, sched_.now()))
            timedOut = true;
        else
            maxComplete +=
                opt_.fault->dramTailLatency(u.name, sched_.now());
    }

    if (u.dir == AccessDir::Read) {
        Element out = pool_.acquire(static_cast<size_t>(lanes));
        for (int l = 0; l < lanes; ++l) {
            SARA_ASSERT(addrs[l] >= 0 &&
                            addrs[l] < static_cast<int64_t>(data.size()),
                        u.name, ": DRAM read OOB addr ", addrs[l]);
            out[l] = data[addrs[l]];
        }
        SARA_ASSERT(u.respOutput >= 0, u.name, ": load AG w/o output");
        auto &f = fifos_[u.outputs[u.respOutput].stream.index()];
        if (timedOut) {
            // The missing element surfaces on the response stream, so
            // log the injection under that resource too — that is the
            // site the starved consumer's wait will name.
            opt_.fault->note(fault::FaultKind::DramTimeout,
                             f.spec().name, sched_.now());
        } else {
            co_await awaitSpace(e, f, StallCause::Credit,
                                "DRAM response space");
            uint64_t extra = maxComplete > sched_.now()
                                 ? maxComplete - sched_.now()
                                 : 0;
            f.pushWithDelay(std::move(out), extra);
        }
    } else {
        SARA_ASSERT(u.dataInput >= 0, u.name, ": store AG w/o data");
        const auto &elem =
            fifos_[u.inputs[u.dataInput].stream.index()].front();
        for (int l = 0; l < lanes; ++l) {
            SARA_ASSERT(addrs[l] >= 0 &&
                            addrs[l] < static_cast<int64_t>(data.size()),
                        u.name, ": DRAM write OOB addr ", addrs[l]);
            data[addrs[l]] = elem.size() == 1 ? elem[0] : elem[l];
        }
    }

    // Track completion for the outstanding window / write drain. A
    // timed-out access never completes: its outstanding slot leaks,
    // eventually wedging the window or the write drain — exactly the
    // hang a lost DRAM response causes in hardware.
    ++e.outstanding;
    ++dramOutstanding_;
    if (!timedOut) {
        sched_.scheduleFnAt(
            [](void *arg) {
                auto *eng = static_cast<Engine *>(arg);
                --eng->outstanding;
                --eng->sim->dramOutstanding_;
                if (!eng->sim->opt_.traceFile.empty())
                    eng->sim->sampleDram();
                // The AG engine is the CV's only possible waiter.
                if (eng->agCv.hasWaiters())
                    eng->agCv.notifyAll();
            },
            &e, std::max(maxComplete, sched_.now()));
    }
    if (!opt_.traceFile.empty())
        sampleDram();
}

void
Simulator::armArbiter()
{
    if (!arbArmed_) {
        arbArmed_ = true;
        sched_.atCycleEnd(&Simulator::arbTrampoline, this);
    }
}

void
Simulator::arbTrampoline(void *arg)
{
    static_cast<Simulator *>(arg)->resolveArbitration();
}

void
Simulator::resolveArbitration()
{
    arbArmed_ = false;
    // Each engine stages at most one request per cycle and unit ids
    // are unique, so unit-id order is a total order. Engines resumed
    // by these notifies may stage *new* same-cycle requests (a granted
    // push can wake a consumer that fires this very cycle); those land
    // in a fresh end-of-cycle round via armArbiter — the scheduler
    // repeats the phase until the cycle is quiescent.
    auto byId = [](const Engine *a, const Engine *b) {
        return a->u->id.v < b->u->id.v;
    };
    std::sort(arbBus_.begin(), arbBus_.end(), byId);
    std::sort(arbDram_.begin(), arbDram_.end(), byId);
    const uint64_t now = sched_.now();
    for (Engine *e : arbBus_) {
        uint64_t grant = std::max(now, *e->busSlot);
        *e->busSlot = grant + 1 + e->busExtra;
        e->busSlot = nullptr;
        e->arbResultAt = grant;
        e->arbCv.notifyAll();
    }
    arbBus_.clear();
    for (Engine *e : arbDram_) {
        uint64_t maxComplete = now;
        for (const auto &[addr, bytes] : e->stagedBursts)
            maxComplete = std::max(
                maxComplete, dram_.access(addr, bytes, now).completeAt);
        e->arbResultAt = maxComplete;
        e->arbCv.notifyAll();
    }
    arbDram_.clear();
}

// ---------------------------------------------------------------------------
// Top level
// ---------------------------------------------------------------------------

SimResult
Simulator::run()
{
    for (auto &e : engines_) {
        if (!e)
            continue;
        e->task = runUnit(*e);
        sched_.scheduleAt(e->task.handle(), 0);
    }

    const uint64_t end = sched_.run(opt_.maxCycles, opt_.cancel);

    if (sched_.cancelled())
        escalate(HangCause::Cancelled);
    if (sched_.budgetExceeded())
        escalate(HangCause::Budget);

    bool allDone = true;
    for (auto &e : engines_) {
        if (!e)
            continue;
        if (!e->error.empty())
            panic("engine ", e->u->name, " failed: ", e->error);
        if (!e->finished)
            allDone = false;
    }
    if (!allDone)
        escalate(HangCause::Drained);
    // Every engine finished: drop the completed frames and give the
    // arena's blocks back, so the caller's next step (the interpreter
    // check) reuses that memory instead of growing the heap.
    for (auto &e : engines_)
        if (e)
            e->task = {};
    frames_.release();

    SimResult result;
    result.cycles = end;
    result.unitStats.resize(g_.numUnits());
    uint64_t busySum = 0;
    int computeUnits = 0;
    for (auto &e : engines_) {
        if (!e)
            continue;
        result.unitStats[e->u->id.index()] = e->stats;
        result.totalFirings += e->stats.firings;
        result.flops += e->flops;
        for (int c = 0; c < kNumStallCauses; ++c)
            result.stallTotals[c] += e->stats.stallCycles[c];
        if (e->u->kind == VuKind::Compute) {
            busySum += e->stats.busyCycles;
            ++computeUnits;
        }
    }
    if (computeUnits > 0 && end > 0)
        result.avgComputeUtilization =
            static_cast<double>(busySum) /
            (static_cast<double>(computeUnits) * end);
    result.fifoStats.reserve(fifos_.size());
    for (const auto &f : fifos_) {
        FifoStats fs;
        fs.name = f.spec().name;
        fs.pushes = f.pushes();
        fs.pops = f.pops();
        fs.highWater = f.highWater();
        fs.capacity = f.capacity();
        result.fifoStats.push_back(std::move(fs));
    }
    result.hostEvents = sched_.eventsExecuted();
    result.wakeups = wakeups_;
    result.spuriousWakeups = spuriousWakeups_;
    result.wakeupsByClass = wakeupsByClass_;
    result.spuriousByClass = spuriousByClass_;
    if (noc_)
        result.noc = noc_->stats();
    buildCounters(result);
    if (!opt_.traceFile.empty())
        writeTrace();
    result.dramBytes = dram_.bytesTransferred();
    result.dramRequests = dram_.requests();
    result.dramRowHits = dram_.rowHits();
    result.dramAchievedBytesPerCycle = dram_.achievedBytesPerCycle(end);
    collectTensors(result);
    debug("simulation done: ", end, " cycles, ", result.totalFirings,
          " firings, ", result.dramRequests, " DRAM requests");
    return result;
}

void
Simulator::collectTensors(SimResult &result)
{
    result.tensors.resize(p_.numTensors());
    for (size_t t = 0; t < p_.numTensors(); ++t) {
        const auto &tensor = p_.tensor(ir::TensorId(t));
        if (tensor.space == ir::MemSpace::Dram) {
            result.tensors[t] = dramData_[t];
            continue;
        }
        auto it = groups_.find(static_cast<int32_t>(t));
        if (it == groups_.end())
            continue; // Optimized away (e.g. FIFO-lowered).
        const MemGroup &grp = it->second;
        std::vector<double> out(tensor.size, 0.0);
        for (int64_t a = 0; a < tensor.size; ++a) {
            auto [shard, offset] = locate(grp, a);
            const auto &ss = grp.state[shard];
            if (offset < static_cast<int64_t>(
                             ss.buffers[ss.lastWriteBuf].size()))
                out[a] = ss.buffers[ss.lastWriteBuf][offset];
        }
        result.tensors[t] = std::move(out);
    }
}

void
Simulator::noteWake(Engine &e, WakeClass cls, bool spurious)
{
    ++wakeups_;
    ++wakeupsByClass_[static_cast<int>(cls)];
    if (spurious) {
        ++spuriousWakeups_;
        ++spuriousByClass_[static_cast<int>(cls)];
    }
    flight_.record(telemetry::FlightKind::Wake, sched_.now(), e.u->id.v,
                   spurious ? 1 : 0);
}

} // namespace sara::sim
