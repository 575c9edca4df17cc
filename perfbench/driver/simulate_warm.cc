/**
 * @file
 * simulate_warm: set-up compiles every workload once; each op decodes a
 * packed artifact and simulates it with the interpreter check on. The
 * simulator, NoC and interpreter do the work and the compiler does
 * none. The fixed-latency cases bypass the NoC, so a NoC-only change
 * shows only on the .noc cases.
 */

#include <cmath>
#include <stdexcept>

#include "artifact/artifact.h"
#include "common.h"
#include "ir/interp.h"
#include "runtime/run.h"
#include "workloads/workload.h"

namespace perfbench {

namespace {

using namespace sara;

/** Simulated statistics that must repeat exactly on every run. */
struct Reference
{
    bool set = false;
    uint64_t cycles = 0;
    uint64_t events = 0;
    uint64_t wakeups = 0;
    uint64_t spurious = 0;
    uint64_t nocHops = 0;
    uint64_t dramBytes = 0;

    bool
    operator==(const Reference &o) const
    {
        return cycles == o.cycles && events == o.events &&
               wakeups == o.wakeups && spurious == o.spurious &&
               nocHops == o.nocHops && dramBytes == o.dramBytes;
    }
};

/** The interpreter check of runtime::runWorkload, run as its own step
 *  so the traced run can time the ir layer apart from the simulator. */
bool
interpreterAgrees(const workloads::Workload &w,
                  const runtime::RunOutcome &out)
{
    const ir::Program &prog = out.compiled.program;
    ir::Interpreter interp(prog);
    for (const auto &[tid, data] : w.dramInputs)
        interp.setTensor(ir::TensorId(tid), data);
    auto ref = interp.run();
    for (size_t t = 0; t < prog.numTensors(); ++t) {
        const auto &simT = out.sim.tensors[t];
        if (simT.empty())
            continue;
        const auto &refT = ref.tensors[t];
        if (simT.size() != refT.size())
            return false;
        for (size_t i = 0; i < simT.size(); ++i)
            if (std::abs(simT[i] - refT[i]) > 1e-4)
                return false;
    }
    return true;
}

} // namespace

PackedCase
compileAndPack(const std::string &workload)
{
    workloads::WorkloadConfig cfg;
    cfg.par = kPar;
    workloads::Workload w = workloads::buildByName(workload, cfg);
    compiler::CompilerOptions copt;
    PackedCase p;
    p.workload = workload;
    p.key = artifact::contentKey(w.program, copt);
    p.bytes = artifact::packArtifact(p.key, compiler::compile(w.program,
                                                              copt));
    return p;
}

sim::SimResult
simulateOp(const PackedCase &p, bool noc, int64_t id, Tracer *t)
{
    artifact::LoadedArtifact la;
    {
        Scoped s(t, "artifact.unpack", id);
        la = artifact::unpackArtifact(p.bytes);
    }
    if (la.key != p.key)
        throw std::runtime_error("artifact key differs from its compile");
    workloads::WorkloadConfig cfg;
    cfg.par = kPar;
    workloads::Workload w;
    {
        Scoped s(t, "workloads.build", id);
        w = workloads::buildByName(p.workload, cfg);
    }
    runtime::RunConfig rc;
    rc.preCompiled = &la.result;
    rc.sim.useNoc = noc;
    runtime::RunOutcome out;
    bool correct = false;
    if (!t) {
        rc.check = true;
        out = runtime::runWorkload(w, rc);
        correct = out.correct;
    } else {
        {
            Scoped s(t, "sim.run", id);
            out = runtime::runWorkload(w, rc);
        }
        Scoped s(t, "ir.interp", id);
        correct = interpreterAgrees(w, out);
    }
    if (!correct)
        throw std::runtime_error("simulation differs from interpreter");
    {
        Scoped s(t, "runtime.report", id);
        if (runtime::jsonReport(w, rc, out).empty())
            throw std::runtime_error("empty run report");
    }
    return std::move(out.sim);
}

Report
runSimulateWarm(const Options &opt)
{
    Report rep;
    auto golden = loadGoldenCycles("bench/golden_perf.json");
    std::vector<PackedCase> packed;
    double setupS = timeSetup([&] {
        packed.clear();
        for (const auto &name : workloads::allWorkloadNames())
            packed.push_back(compileAndPack(name));
    });

    // Case 2k is workload k on the fixed-latency network, 2k+1 on the NoC.
    std::vector<std::string> names;
    for (const auto &p : packed) {
        names.push_back(p.workload);
        names.push_back(p.workload + ".noc");
    }
    auto isNoc = [](size_t c) { return c % 2 == 1; };
    std::vector<Reference> refs(names.size());

    auto op = [&](size_t c, int64_t id, Tracer *t) {
        const PackedCase &p = packed[c / 2];
        const bool noc = isNoc(c);
        const sim::SimResult r = simulateOp(p, noc, id, t);
        Reference now{true,          r.cycles,      r.hostEvents,
                      r.wakeups,     r.spuriousWakeups,
                      r.noc.hops,    r.dramBytes};
        auto g = golden.find({p.workload, noc ? "noc" : "fixed"});
        if (g != golden.end() && g->second != r.cycles)
            throw std::runtime_error(
                "cycles " + std::to_string(r.cycles) +
                " != golden " + std::to_string(g->second));
        if (!refs[c].set)
            refs[c] = now;
        else if (!(now == refs[c]))
            throw std::runtime_error("simulated statistics differ between "
                                     "runs");
    };

    Batch batch(names, op, opt.seed);
    runBatch(opt, batch, setupS, rep, [&](const Tracer &t, Report &r) {
        auto fixedOnly = [&](size_t c) { return !isNoc(c); };
        double fixedMs = batch.layerMs(t, "sim.run", fixedOnly);
        double nocMs = batch.layerMs(t, "sim.run", isNoc);
        r.perLayer["sim.run_ms.fixed"] = {fixedMs, "ms"};
        r.perLayer["sim.run_ms.noc"] = {nocMs, "ms"};
        double events = 0, cycles = 0;
        for (const auto &ref : refs) {
            events += double(ref.events);
            cycles += double(ref.cycles);
        }
        double simS = (fixedMs + nocMs) / 1e3;
        r.perLayer["sim.events_per_s"] = {events / simS, "1/s"};
        r.perLayer["sim.mcycles_per_s"] = {cycles / simS / 1e6,
                                           "Mcycles/s"};
        r.perLayer["interp.run_ms"] = {batch.layerMs(t, "ir.interp"), "ms"};
        r.perLayer["runtime.report_ms"] = {
            batch.layerMs(t, "runtime.report"), "ms"};
        r.perLayer["workloads.build_ms"] = {
            batch.layerMs(t, "workloads.build"), "ms"};
        r.perLayer["artifact.decode_ms"] = {
            batch.layerMs(t, "artifact.unpack"), "ms"};
    });

    double cycles = 0, events = 0, wakeups = 0, spurious = 0, hops = 0,
           dram = 0, bytes = 0;
    for (size_t c = 0; c < refs.size(); ++c) {
        const Reference &ref = refs[c];
        cycles += double(ref.cycles);
        events += double(ref.events);
        wakeups += double(ref.wakeups);
        spurious += double(ref.spurious);
        hops += double(ref.nocHops);
        dram += double(ref.dramBytes);
        rep.detail[c].cycles = ref.cycles;
        rep.detail[c].bytes = packed[c / 2].bytes.size();
    }
    for (const auto &p : packed)
        bytes += double(p.bytes.size());
    rep.perLayer["sim_cycles"] = {cycles, "cycles"};
    rep.perLayer["sim.events"] = {events, "count"};
    rep.perLayer["sim.wakeups"] = {wakeups, "count"};
    rep.perLayer["sim.spurious_ratio"] = {
        wakeups > 0 ? spurious / wakeups : 0.0, "1"};
    rep.perLayer["noc.hops"] = {hops, "count"};
    rep.perLayer["dram.bytes"] = {dram, "B"};
    rep.perLayer["artifact_bytes"] = {bytes, "B"};
    return rep;
}

} // namespace perfbench
