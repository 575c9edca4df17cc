/**
 * @file
 * compile_cold: every op compiles one case from scratch, with no cache.
 * PnR is about 95% of most compiles; lowering dominates sort and the
 * MIP solver kmeans.solver. The simulator does nothing here.
 */

#include <stdexcept>

#include "artifact/artifact.h"
#include "common.h"
#include "compiler/driver.h"
#include "workloads/workload.h"

namespace perfbench {

namespace {

using namespace sara;

struct Case
{
    std::string name;
    std::string workload;
    compiler::CompilerOptions options;
};

/** Outputs that must repeat exactly on every compile of a case. */
struct Reference
{
    bool set = false;
    std::string key;
    std::string bytes;
    double routeHops = 0.0;
    double wirelength = 0.0;
    int units = 0;
};

std::vector<Case>
compileCases()
{
    std::vector<Case> cases;
    for (const auto &name : workloads::allWorkloadNames())
        cases.push_back({name, name, {}});
    Case solver{"kmeans.solver", "kmeans", {}};
    solver.options.partitioner = compiler::PartitionAlgo::Solver;
    cases.push_back(solver);
    return cases;
}

const telemetry::Span *
findPhase(const compiler::CompileResult &r, const std::string &name)
{
    for (const auto &s : r.phases)
        if (s.name == name)
            return &s;
    return nullptr;
}

/** Re-record the phase spans compile() returns as children of the
 *  benchmark's compile span. With PartitionAlgo::Solver the MIP solver
 *  does the work of the partition and merge phases, so that time
 *  belongs to the solver layer. */
void
addPhaseSpans(Tracer &t, int compileSpan, int64_t op, const Case &c,
              const compiler::CompileResult &r)
{
    const telemetry::Span *root = findPhase(r, "compile");
    if (!root)
        return;
    double base = t.spans()[compileSpan].startUs;
    for (const auto &p : r.phases) {
        if (p.depth != 1)
            continue;
        bool solver = (p.name == "partition" || p.name == "merge") &&
                      c.options.partitioner ==
                          compiler::PartitionAlgo::Solver;
        double start = base + (p.startMs - root->startMs) * 1e3;
        t.add((solver ? "solver." : "compiler.") + p.name, start,
              start + p.durMs * 1e3, compileSpan, op);
    }
}

} // namespace

Report
runCompileCold(const Options &opt)
{
    Report rep;
    std::vector<Case> cases;
    // Set-up only assembles the case list and checks that every case
    // builds; the ops themselves start from nothing.
    double setupS = timeSetup([&] {
        cases = compileCases();
        workloads::WorkloadConfig cfg;
        cfg.par = kPar;
        for (const auto &c : cases)
            workloads::buildByName(c.workload, cfg);
    });

    std::vector<Reference> refs(cases.size());
    std::vector<std::string> names;
    for (const auto &c : cases)
        names.push_back(c.name);

    auto op = [&](size_t i, int64_t id, Tracer *t) {
        const Case &c = cases[i];
        workloads::WorkloadConfig cfg;
        cfg.par = kPar;
        workloads::Workload w;
        {
            Scoped s(t, "workloads.build", id);
            w = workloads::buildByName(c.workload, cfg);
        }
        compiler::CompileResult r;
        int compileSpan = -1;
        {
            Scoped s(t, "compiler.compile", id);
            compileSpan = s.id();
            r = compiler::compile(w.program, c.options);
        }
        if (t)
            addPhaseSpans(*t, compileSpan, id, c, r);
        std::string key;
        {
            Scoped s(t, "artifact.key", id);
            key = artifact::contentKey(w.program, c.options);
        }
        std::string bytes;
        {
            Scoped s(t, "artifact.pack", id);
            bytes = artifact::packArtifact(key, r);
        }

        const telemetry::Span *pnr = findPhase(r, "pnr");
        if (!pnr)
            throw std::runtime_error("compile returned no pnr phase");
        Reference now{true, std::move(key), std::move(bytes),
                      pnr->stat("route-hops"), pnr->stat("wirelength"),
                      r.resources.total()};
        Reference &ref = refs[i];
        if (!ref.set) {
            ref = std::move(now);
            return;
        }
        if (now.key != ref.key)
            throw std::runtime_error("content key changed between compiles");
        if (now.bytes != ref.bytes)
            throw std::runtime_error("packed artifact bytes differ between "
                                     "compiles");
        if (now.routeHops != ref.routeHops ||
            now.wirelength != ref.wirelength || now.units != ref.units)
            throw std::runtime_error("placement counts differ between "
                                     "compiles");
    };

    Batch batch(names, op, opt.seed);
    runBatch(opt, batch, setupS, rep, [&](const Tracer &t, Report &r) {
        double compileMs = batch.layerMs(t, "compiler.compile");
        double pnrMs = batch.layerMs(t, "compiler.pnr");
        r.perLayer["compiler.pnr_ms"] = {pnrMs, "ms"};
        r.perLayer["compiler.pnr_share"] = {
            compileMs > 0 ? pnrMs / compileMs : 0.0, "1"};
        for (const char *phase :
             {"unroll", "lower", "partition", "merge", "retime"})
            r.perLayer[std::string("compiler.") + phase + "_ms"] = {
                batch.layerMs(t, std::string("compiler.") + phase), "ms"};
        r.perLayer["solver.partition_ms"] = {
            batch.layerMs(t, "solver.partition") +
                batch.layerMs(t, "solver.merge"),
            "ms"};
        r.perLayer["artifact.key_ms"] = {batch.layerMs(t, "artifact.key"),
                                         "ms"};
        r.perLayer["artifact.encode_ms"] = {
            batch.layerMs(t, "artifact.pack"), "ms"};
        r.perLayer["workloads.build_ms"] = {
            batch.layerMs(t, "workloads.build"), "ms"};
    });

    double hops = 0, wirelength = 0, units = 0, bytes = 0;
    for (size_t i = 0; i < cases.size(); ++i) {
        hops += refs[i].routeHops;
        wirelength += refs[i].wirelength;
        units += refs[i].units;
        bytes += double(refs[i].bytes.size());
        rep.detail[i].bytes = refs[i].bytes.size();
    }
    rep.perLayer["pnr.route_hops"] = {hops, "count"};
    rep.perLayer["pnr.wirelength"] = {wirelength, "count"};
    rep.perLayer["compiler.units"] = {units, "count"};
    rep.perLayer["artifact_bytes"] = {bytes, "B"};
    return rep;
}

} // namespace perfbench
