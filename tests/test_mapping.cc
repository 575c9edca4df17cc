/**
 * @file
 * Resource-mapping tests: compute partitioning (constraints, legality,
 * rewrite correctness), global merging, retiming, the annealing
 * solver, and placement & routing.
 */

#include <gtest/gtest.h>

#include <bit>
#include <deque>
#include <set>

#include "artifact/artifact.h"
#include "compiler/merging.h"
#include "compiler/partition.h"
#include "compiler/pnr.h"
#include "ir/builder.h"
#include "jobs/jobs.h"
#include "solver/mip.h"
#include "support/rng.h"
#include "tests/helpers.h"
#include "workloads/workload.h"

namespace sara {
namespace {

using namespace compiler;

PartitionProblem
chainProblem(int n, int maxOps)
{
    PartitionProblem prob;
    prob.n = n;
    prob.opCost.assign(n, 1);
    for (int i = 0; i + 1 < n; ++i)
        prob.edges.push_back({i, i + 1});
    prob.maxOps = maxOps;
    return prob;
}

TEST(Partition, TraversalRespectsOpLimit)
{
    auto prob = chainProblem(20, 6);
    for (auto algo : {PartitionAlgo::BfsFwd, PartitionAlgo::BfsBwd,
                      PartitionAlgo::DfsFwd, PartitionAlgo::DfsBwd}) {
        auto sol = partitionTraversal(prob, algo);
        EXPECT_TRUE(sol.feasible) << partitionAlgoName(algo);
        EXPECT_GE(sol.numPartitions, 4);
        bool ok = false;
        partitionCost(prob, sol.assign, &ok);
        EXPECT_TRUE(ok);
    }
}

TEST(Partition, CostDetectsViolations)
{
    auto prob = chainProblem(8, 4);
    std::vector<int> tooBig(8, 0); // All in one partition: 8 ops > 4.
    bool ok = true;
    partitionCost(prob, tooBig, &ok);
    EXPECT_FALSE(ok);

    // Cross-partition cycle: 0->1 in p0->p1 and an edge back.
    PartitionProblem cyc;
    cyc.n = 4;
    cyc.opCost.assign(4, 1);
    cyc.edges = {{0, 1}, {1, 2}, {2, 3}};
    std::vector<int> cycAssign = {0, 1, 0, 1};
    // p0 -> p1 (0->1), p1 -> p0 (1->2): cycle.
    ok = true;
    partitionCost(cyc, cycAssign, &ok);
    EXPECT_FALSE(ok);
}

TEST(Partition, DiamondRetimingCost)
{
    // A skewed diamond: a long chain and a direct edge reconverging.
    PartitionProblem prob;
    prob.n = 6;
    prob.opCost.assign(6, 1);
    prob.maxOps = 1; // One node per partition.
    prob.edges = {{0, 1}, {1, 2}, {2, 3}, {3, 4}, {0, 5}, {4, 5}};
    std::vector<int> assign = {0, 1, 2, 3, 4, 5};
    bool ok = false;
    double cost = partitionCost(prob, assign, &ok);
    EXPECT_TRUE(ok);
    // 6 partitions + alpha * (gap of edge 0->5 = depth 5 - 1 = 4).
    EXPECT_NEAR(cost, 6 + prob.alpha * 4, 1e-9);
}

/** Set-based partition cost: the oracle PartitionEvaluator::cost must
 *  match bit for bit. */
double
referencePartitionCost(const PartitionProblem &prob,
                       const std::vector<int> &assign, bool *feasible)
{
    bool ok = true;
    int parts = 0;
    for (int a : assign)
        parts = std::max(parts, a + 1);

    std::vector<int> ops(parts, 0), aux(parts, 0);
    std::vector<std::set<int>> inSrcs(parts);
    std::vector<std::set<int>> outNodes(parts);
    for (int i = 0; i < prob.n; ++i) {
        ops[assign[i]] += prob.opCost[i];
        if (prob.maxAux > 0)
            aux[assign[i]] += prob.auxCost[i];
    }
    for (const auto &[s, d] : prob.edges) {
        if (assign[s] == assign[d])
            continue;
        inSrcs[assign[d]].insert(s);
        outNodes[assign[s]].insert(s);
    }
    for (int pIdx = 0; pIdx < parts; ++pIdx) {
        if (ops[pIdx] > prob.maxOps ||
            static_cast<int>(inSrcs[pIdx].size()) > prob.maxIn ||
            static_cast<int>(outNodes[pIdx].size()) > prob.maxOut)
            ok = false;
        if (prob.maxAux > 0 && aux[pIdx] > prob.maxAux)
            ok = false;
    }

    std::vector<std::set<int>> succ(parts);
    std::vector<int> indeg(parts, 0);
    for (const auto &[s, d] : prob.edges) {
        int a = assign[s], b = assign[d];
        if (a != b && succ[a].insert(b).second)
            ++indeg[b];
    }
    std::deque<int> ready;
    for (int i = 0; i < parts; ++i)
        if (indeg[i] == 0)
            ready.push_back(i);
    std::vector<int> depth(parts, 0);
    int seen = 0;
    while (!ready.empty()) {
        int cur = ready.front();
        ready.pop_front();
        ++seen;
        for (int nxt : succ[cur]) {
            depth[nxt] = std::max(depth[nxt], depth[cur] + 1);
            if (--indeg[nxt] == 0)
                ready.push_back(nxt);
        }
    }
    if (seen != parts)
        ok = false;

    double retime = 0.0;
    if (ok) {
        for (const auto &[s, d] : prob.edges) {
            int gap = depth[assign[d]] - depth[assign[s]];
            if (assign[s] != assign[d] && gap > 1)
                retime += gap - 1;
        }
    }
    if (feasible)
        *feasible = ok;
    return ok ? parts + prob.alpha * retime : 1e18;
}

/** Which single constraint a random family is built to violate. */
enum class Stress { Cycles, Arity, Aux, Mixed };

TEST(Partition, EvaluatorMatchesSetBasedReference)
{
    // One evaluator per problem, reused across many assignments (as in
    // the solver), against a fresh reference evaluation each time. Each
    // family relaxes every constraint but one, so both outcomes of that
    // constraint are seen; edges always include duplicates.
    Rng rng(2024);
    for (Stress family :
         {Stress::Cycles, Stress::Arity, Stress::Aux, Stress::Mixed}) {
        int feasibleSeen = 0, infeasibleSeen = 0;
        for (int trial = 0; trial < 60; ++trial) {
            PartitionProblem prob;
            prob.n = static_cast<int>(rng.intIn(1, 32));
            prob.opCost.resize(prob.n);
            for (int &c : prob.opCost)
                c = static_cast<int>(rng.intIn(0, 2));
            for (int d = 1; d < prob.n; ++d) {
                int fanIn = static_cast<int>(rng.intIn(0, 3));
                for (int k = 0; k < fanIn; ++k) {
                    int s = static_cast<int>(rng.index(d));
                    prob.edges.push_back({s, d});
                    if (rng.chance(0.2))
                        prob.edges.push_back({s, d}); // Duplicate.
                }
            }
            prob.maxOps = family == Stress::Mixed
                              ? static_cast<int>(rng.intIn(2, 8))
                              : 1000;
            prob.maxIn = prob.maxOut =
                family == Stress::Arity || family == Stress::Mixed
                    ? static_cast<int>(rng.intIn(1, 4))
                    : 1000;
            if (family == Stress::Aux || family == Stress::Mixed) {
                prob.auxCost.resize(prob.n);
                for (int &c : prob.auxCost)
                    c = static_cast<int>(rng.intIn(0, 3));
                prob.maxAux = static_cast<int>(rng.intIn(2, 6));
            }
            prob.alpha = 1.0 / static_cast<double>(rng.intIn(1, 6));

            PartitionEvaluator eval(prob);
            for (int rep = 0; rep < 40; ++rep) {
                int parts = static_cast<int>(rng.intIn(1, prob.n));
                std::vector<int> assign(prob.n);
                for (int &a : assign)
                    a = static_cast<int>(rng.index(parts));
                // Only the Cycles and Mixed families may form cycles:
                // elsewhere partition ids never decrease along an edge.
                if (family == Stress::Arity || family == Stress::Aux)
                    std::sort(assign.begin(), assign.end());
                bool ref = false, got = true;
                double want = referencePartitionCost(prob, assign, &ref);
                double cost = eval.cost(assign, &got);
                ASSERT_EQ(std::bit_cast<uint64_t>(want),
                          std::bit_cast<uint64_t>(cost))
                    << "trial " << trial << " rep " << rep;
                ASSERT_EQ(ref, got) << "trial " << trial << " rep " << rep;
                (ref ? feasibleSeen : infeasibleSeen)++;
            }
        }
        EXPECT_GT(feasibleSeen, 0) << static_cast<int>(family);
        EXPECT_GT(infeasibleSeen, 0) << static_cast<int>(family);
    }
}

TEST(Partition, SolverNotWorseThanWarmStart)
{
    Rng rng(3);
    PartitionProblem prob;
    prob.n = 24;
    prob.opCost.assign(prob.n, 1);
    for (int i = 1; i < prob.n; ++i) {
        prob.edges.push_back({static_cast<int>(rng.index(i)), i});
        if (rng.chance(0.4))
            prob.edges.push_back({static_cast<int>(rng.index(i)), i});
    }
    auto warm = partitionTraversal(prob, PartitionAlgo::DfsFwd);
    solver::AnnealOptions ao;
    ao.iterations = 20000;
    ao.seed = 5;
    auto res = solver::anneal(
        prob.n, warm.assign,
        [&](const std::vector<int> &a, bool *f) {
            return partitionCost(prob, a, f);
        },
        ao);
    ASSERT_TRUE(res.feasible);
    EXPECT_LE(res.cost, warm.cost + 1e-9);
}

TEST(Partition, OversizedBlockIsSplitAndStaysCorrect)
{
    // A 24-op arithmetic chain in one hyperblock: must be partitioned
    // into >= 4 PCUs, and the program must still compute correctly.
    using namespace ir;
    Program p;
    Builder b(p);
    auto in = p.addTensor("in", MemSpace::Dram, 64);
    auto out = p.addTensor("out", MemSpace::Dram, 64);
    auto l = b.beginLoop("i", 0, 64, 1, 16);
    b.beginBlock("deep");
    OpId v = b.read(in, b.iter(l));
    for (int k = 0; k < 24; ++k)
        v = b.add(b.mul(v, b.cst(1.0 + k * 0.01)), b.cst(0.5));
    b.write(out, b.iter(l), v);
    b.endBlock();
    b.endLoop();

    std::vector<double> data(64);
    for (int i = 0; i < 64; ++i)
        data[i] = i * 0.25;
    auto r = test::runAndCompare(p, test::tinyOptions(), {{in.v, data}});
    EXPECT_GE(r.compiled.partitionsCreated, 3);
}

TEST(Merge, PacksSmallUnits)
{
    using namespace ir;
    // Many tiny sequential phases produce many small VCUs; merging
    // should pack them well below one PCU each.
    Program p;
    Builder b(p);
    auto out = p.addTensor("out", MemSpace::Dram, 16);
    ir::OpId prev;
    for (int i = 0; i < 12; ++i) {
        b.beginBlock(test::numbered("b", i));
        ir::OpId v = prev.valid() ? b.add(prev, b.cst(1.0))
                                  : b.cst(0.0);
        prev = b.mul(v, b.cst(2.0));
        b.endBlock();
    }
    b.beginBlock("st");
    b.write(out, b.cst(0.0), prev);
    b.endBlock();

    auto r = test::runAndCompare(p, test::tinyOptions());
    EXPECT_GT(r.compiled.unitsMerged, 0);
    EXPECT_LT(r.compiled.resources.pcus, 13);
}

TEST(Pnr, AssignsDistinctCellsAndLatencies)
{
    using namespace ir;
    Program p;
    Builder b(p);
    auto in = p.addTensor("in", MemSpace::Dram, 256);
    auto buf = p.addTensor("buf", MemSpace::OnChip, 256);
    auto out = p.addTensor("out", MemSpace::Dram, 256);
    auto l1 = b.beginLoop("l1", 0, 256, 1, 16);
    b.beginBlock("ld");
    b.write(buf, b.iter(l1), b.read(in, b.iter(l1)));
    b.endBlock();
    b.endLoop();
    auto l2 = b.beginLoop("l2", 0, 256, 1, 16);
    b.beginBlock("st");
    b.write(out, b.iter(l2), b.mul(b.read(buf, b.iter(l2)), b.cst(2.0)));
    b.endBlock();
    b.endLoop();

    auto r = compiler::compile(p, test::tinyOptions());
    const auto &g = r.lowering.graph;
    // Different groups must sit on different cells.
    std::map<int, std::pair<int, int>> cellOf;
    for (const auto &u : g.units()) {
        auto it = cellOf.find(u.mergedInto);
        if (it == cellOf.end()) {
            for (const auto &[grp, cell] : cellOf)
                EXPECT_FALSE(cell ==
                             std::make_pair(u.placeX, u.placeY))
                    << "two groups on one cell";
            cellOf[u.mergedInto] = {u.placeX, u.placeY};
        } else {
            EXPECT_EQ(it->second, std::make_pair(u.placeX, u.placeY));
        }
    }
    // Latencies: same-group streams are local; others >= minLatency.
    for (const auto &s : g.streams()) {
        if (g.unit(s.src).mergedInto == g.unit(s.dst).mergedInto)
            EXPECT_EQ(s.latency, 1);
        else
            EXPECT_GE(s.latency,
                      test::tinyOptions().spec.net.minLatency);
    }
}

TEST(Solver, AnnealFindsSingletonOptimum)
{
    // Independent nodes, capacity 4 each: optimum = ceil(n/4) parts.
    PartitionProblem prob;
    prob.n = 12;
    prob.opCost.assign(prob.n, 1);
    prob.maxOps = 4;
    std::vector<int> warm(prob.n);
    for (int i = 0; i < prob.n; ++i)
        warm[i] = i; // Singletons: cost 12.
    solver::AnnealOptions ao;
    ao.iterations = 50000;
    ao.lowerBound = 3;
    auto res = solver::anneal(
        prob.n, warm,
        [&](const std::vector<int> &a, bool *f) {
            return partitionCost(prob, a, f);
        },
        ao);
    ASSERT_TRUE(res.feasible);
    EXPECT_LE(res.cost, 3.5); // Within the 15% gap of optimum 3.
}

TEST(Solver, AnnealKeepsIdsInRangeFromAllSingletons)
{
    // With every node alone, a relocation opens partition id n; the
    // renumbering must cover it (checked by the sanitizer builds).
    for (int n : {2, 3, 5}) {
        PartitionProblem prob = chainProblem(n, 1);
        std::vector<int> warm(n);
        for (int i = 0; i < n; ++i)
            warm[i] = i;
        solver::AnnealOptions ao;
        ao.iterations = 2000;
        PartitionEvaluator eval(prob);
        auto res = solver::anneal(
            n, warm,
            [&](const std::vector<int> &a, bool *f) {
                for (int p : a)
                    EXPECT_LT(p, n);
                return eval.cost(a, f);
            },
            ao);
        ASSERT_TRUE(res.feasible) << n;
        EXPECT_EQ(res.cost, static_cast<double>(n)) << n;
    }
}

TEST(Solver, ConcurrentCompilesMatchSequential)
{
    // Solver state lives in each call (no statics, no thread-locals):
    // two solver compiles running at once on jobs threads produce the
    // same artifact as one compile run alone.
    workloads::WorkloadConfig cfg;
    cfg.par = 8;
    CompilerOptions opt;
    opt.partitioner = PartitionAlgo::Solver;
    auto compileKmeans = [&] {
        auto w = workloads::buildByName("kmeans", cfg);
        return artifact::encodeCompileResult(compile(w.program, opt));
    };
    const std::string sequential = compileKmeans();
    std::vector<std::string> concurrent(2);
    jobs::BatchOptions bo;
    bo.threads = 2;
    auto report = jobs::forEachIndex(
        concurrent.size(), "kmeans-solver",
        [&](size_t i) { concurrent[i] = compileKmeans(); }, bo);
    ASSERT_TRUE(report.allOk()) << report.firstError();
    for (const auto &bytes : concurrent)
        EXPECT_TRUE(bytes == sequential);
}

} // namespace
} // namespace sara
