/**
 * @file
 * google-benchmark micro-suite for the toolchain itself: compile-phase
 * throughput, graph-algorithm kernels, solver iterations, and
 * simulator event throughput. Guards against performance regressions
 * in the compiler/simulator (the "slow cycle-accurate simulator" is
 * the methodology bottleneck, §IV-a).
 *
 * `BM_Compile/<workload>` compiles one registry workload at par 8 with
 * default options (plus `kmeans.solver` with the MIP-lite solver) and
 * reports each compile phase's mean ms as a counter. The committed
 * BENCH_compile.json comes from
 *
 *     bench_micro --benchmark_filter=BM_Compile/ \
 *         --benchmark_repetitions=5 --benchmark_report_aggregates_only \
 *         --benchmark_out=BENCH_compile.json
 *
 * which records min, median and spread ((max - min) / median) over the
 * repetitions, and a host fingerprint in its context.
 */

#include <benchmark/benchmark.h>

#include <algorithm>
#include <fstream>
#include <map>
#include <string>
#include <thread>

#include "compiler/driver.h"
#include "compiler/partition.h"
#include "runtime/run.h"
#include "solver/mip.h"
#include "support/digraph.h"
#include "support/logging.h"
#include "support/rng.h"
#include "workloads/workload.h"

using namespace sara;

namespace {

workloads::Workload
mlp(int par)
{
    workloads::WorkloadConfig cfg;
    cfg.par = par;
    return workloads::buildMlp(cfg);
}

void
BM_CompileMlp(benchmark::State &state)
{
    auto w = mlp(static_cast<int>(state.range(0)));
    compiler::CompilerOptions opt;
    opt.spec = arch::PlasticineSpec::paper();
    opt.pnrIterations = 500;
    for (auto _ : state) {
        auto r = compiler::compile(w.program, opt);
        benchmark::DoNotOptimize(r.resources.pcus);
    }
}
BENCHMARK(BM_CompileMlp)->Arg(16)->Arg(64)->Unit(benchmark::kMillisecond);

void
BM_SimulateMlp(benchmark::State &state)
{
    auto w = mlp(static_cast<int>(state.range(0)));
    runtime::RunConfig rc;
    rc.compiler.spec = arch::PlasticineSpec::paper();
    rc.compiler.pnrIterations = 500;
    uint64_t cycles = 0;
    for (auto _ : state) {
        auto r = runtime::runWorkload(w, rc);
        cycles = r.sim.cycles;
        benchmark::DoNotOptimize(cycles);
    }
    state.counters["sim_cycles"] = static_cast<double>(cycles);
}
BENCHMARK(BM_SimulateMlp)->Arg(64)->Unit(benchmark::kMillisecond);

void
BM_TransitiveReduction(benchmark::State &state)
{
    const size_t n = static_cast<size_t>(state.range(0));
    const double density = static_cast<double>(state.range(1)) / 100;
    for (auto _ : state) {
        state.PauseTiming();
        Rng rng(7);
        Digraph g(n);
        for (size_t i = 0; i < n; ++i)
            for (size_t j = i + 1; j < n; ++j)
                if (rng.chance(density))
                    g.addEdge(i, j);
        state.ResumeTiming();
        g.transitiveReduction();
        benchmark::DoNotOptimize(g.numEdges());
    }
}
// Args: nodes, edge percentage. The last case is the shape of sort's
// accessor dependency graphs at par 8: 130 accessors, every pair
// ordered (8385 forward edges).
BENCHMARK(BM_TransitiveReduction)
    ->Args({32, 20})
    ->Args({128, 20})
    ->Args({130, 100});

void
BM_PartitionTraversal(benchmark::State &state)
{
    Rng rng(11);
    compiler::PartitionProblem prob;
    prob.n = static_cast<int>(state.range(0));
    prob.opCost.assign(prob.n, 1);
    for (int i = 1; i < prob.n; ++i)
        prob.edges.push_back(
            {static_cast<int>(rng.index(i)), i});
    for (auto _ : state) {
        auto sol = compiler::partitionTraversal(
            prob, compiler::PartitionAlgo::DfsFwd);
        benchmark::DoNotOptimize(sol.numPartitions);
    }
}
BENCHMARK(BM_PartitionTraversal)->Arg(64)->Arg(512);

void
BM_SolverAnneal(benchmark::State &state)
{
    Rng rng(13);
    compiler::PartitionProblem prob;
    prob.n = 48;
    prob.opCost.assign(prob.n, 1);
    for (int i = 1; i < prob.n; ++i)
        prob.edges.push_back({static_cast<int>(rng.index(i)), i});
    auto warm =
        compiler::partitionTraversal(prob, compiler::PartitionAlgo::DfsFwd);
    solver::AnnealOptions ao;
    ao.iterations = static_cast<uint64_t>(state.range(0));
    compiler::PartitionEvaluator eval(prob);
    for (auto _ : state) {
        auto res = solver::anneal(
            prob.n, warm.assign,
            [&](const std::vector<int> &a, bool *f) {
                return eval.cost(a, f);
            },
            ao);
        benchmark::DoNotOptimize(res.cost);
    }
}
BENCHMARK(BM_SolverAnneal)->Arg(1000)->Arg(10000)
    ->Unit(benchmark::kMillisecond);

void
BM_Compile(benchmark::State &state, const std::string &workload,
           compiler::PartitionAlgo algo)
{
    workloads::WorkloadConfig cfg;
    cfg.par = 8;
    auto w = workloads::buildByName(workload, cfg);
    compiler::CompilerOptions opt;
    opt.partitioner = algo;
    std::map<std::string, double> phaseMs;
    for (auto _ : state) {
        auto r = compiler::compile(w.program, opt);
        for (const auto &span : r.phases)
            if (span.depth == 1)
                phaseMs[span.name] += span.durMs;
        benchmark::DoNotOptimize(r.resources.pcus);
    }
    for (const auto &[phase, ms] : phaseMs)
        state.counters[phase + "_ms"] =
            benchmark::Counter(ms, benchmark::Counter::kAvgIterations);
}

double
minOf(const std::vector<double> &v)
{
    return *std::min_element(v.begin(), v.end());
}

/** (max - min) / median over the repetitions. */
double
spreadOf(const std::vector<double> &v)
{
    std::vector<double> s = v;
    std::sort(s.begin(), s.end());
    size_t n = s.size();
    double median = n % 2 ? s[n / 2] : (s[n / 2 - 1] + s[n / 2]) / 2;
    return median > 0 ? (s.back() - s.front()) / median : 0.0;
}

void
registerCompileCases()
{
    std::vector<std::pair<std::string, compiler::PartitionAlgo>> cases;
    for (const auto &name : workloads::allWorkloadNames())
        cases.push_back({name, compiler::PartitionAlgo::DfsFwd});
    cases.push_back({"kmeans.solver", compiler::PartitionAlgo::Solver});
    for (const auto &[label, algo] : cases) {
        std::string workload = label.substr(0, label.find('.'));
        benchmark::RegisterBenchmark(("BM_Compile/" + label).c_str(),
                                     BM_Compile, workload, algo)
            ->Unit(benchmark::kMillisecond)
            ->ComputeStatistics("min", minOf)
            ->ComputeStatistics("spread", spreadOf,
                                benchmark::kPercentage);
    }
}

std::string
cpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    for (std::string line; std::getline(in, line);) {
        if (line.rfind("model name", 0) != 0)
            continue;
        auto colon = line.find(':');
        if (colon != std::string::npos)
            return line.substr(line.find_first_not_of(' ', colon + 1));
    }
    return "unknown";
}

} // namespace

int
main(int argc, char **argv)
{
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    registerCompileCases();
    // Oversized workloads warn "does not fit" on every compile.
    setLogLevel(LogLevel::Error);
    benchmark::AddCustomContext("cpu_model", cpuModel());
    benchmark::AddCustomContext(
        "nproc", std::to_string(std::thread::hardware_concurrency()));
    benchmark::AddCustomContext("sara_build_type", SARA_BUILD_TYPE);
    benchmark::AddCustomContext("compiler", __VERSION__);
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
