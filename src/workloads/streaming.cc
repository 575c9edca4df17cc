/**
 * @file
 * Graph and streaming workloads (paper Table IV / Table VI): PageRank
 * over a synthetic CSR graph (dynamic bounds + gathers), Black-Scholes
 * (deep arithmetic pipeline — exercises compute partitioning), odd-even
 * transposition sort (ping-pong buffers), random-forest inference
 * (chained data-dependent gathers -> request/response stratification),
 * and a streaming windowed-sum filter (ms).
 */

#include <cmath>

#include <algorithm>

#include "workloads/common.h"

namespace sara::workloads {

Workload
buildPr(const WorkloadConfig &cfg)
{
    Workload w;
    w.name = "pr";
    w.computeBound = false; // Bandwidth/gather bound.
    Rng rng(cfg.seed);

    const int64_t V = 192 * cfg.scale;
    const int64_t maxDeg = 12;
    const int iters = 2;
    ParSplit par = splitPar(cfg.par);
    const int loadPar = std::max(16, std::min(cfg.par, 32));

    // Synthetic CSR graph (preferential-attachment-ish degrees).
    std::vector<double> offs(V + 1), nbrs;
    for (int64_t v = 0; v < V; ++v) {
        offs[v] = static_cast<double>(nbrs.size());
        int64_t deg = rng.intIn(1, maxDeg);
        for (int64_t e = 0; e < deg; ++e) {
            // Bias toward low ids (hubs).
            int64_t u = rng.intIn(0, V - 1);
            u = std::min(u, rng.intIn(0, V - 1));
            nbrs.push_back(static_cast<double>(u));
        }
    }
    offs[V] = static_cast<double>(nbrs.size());
    const int64_t E = static_cast<int64_t>(nbrs.size());
    std::vector<double> outDeg(V, 0.0);
    for (double u : nbrs)
        outDeg[static_cast<int64_t>(u)] += 1.0;
    std::vector<double> invDeg(V);
    for (int64_t v = 0; v < V; ++v)
        invDeg[v] = outDeg[v] > 0 ? 1.0 / outDeg[v] : 0.0;

    Program &p = w.program;
    Builder b(p);
    auto dOffs = p.addTensor("dOffs", MemSpace::Dram, V + 1);
    auto dNbr = p.addTensor("dNbr", MemSpace::Dram, E);
    auto dInv = p.addTensor("dInv", MemSpace::Dram, V);
    auto dRank = p.addTensor("dRank", MemSpace::Dram, V);

    auto offsb = p.addTensor("offsb", MemSpace::OnChip, V + 1);
    auto nbrb = p.addTensor("nbrb", MemSpace::OnChip, E);
    auto invb = p.addTensor("invb", MemSpace::OnChip, V);
    auto rankA = p.addTensor("rankA", MemSpace::OnChip, V);
    auto rankB = p.addTensor("rankB", MemSpace::OnChip, V);

    emitLoad(b, dOffs, offsb, V + 1, 0, loadPar, "ldo");
    emitLoad(b, dNbr, nbrb, E, 0, loadPar, "ldn");
    emitLoad(b, dInv, invb, V, 0, loadPar, "ldi");
    // Initial rank = 1/V.
    {
        auto l = b.beginLoop("init", 0, V, 1, 16);
        b.beginBlock("init_b");
        b.write(rankA, b.iter(l), b.cst(1.0 / V));
        b.endBlock();
        b.endLoop();
    }

    TensorId src = rankA, dst = rankB;
    for (int it = 0; it < iters; ++it) {
        std::string tag = "pr" + std::to_string(it);
        auto v = b.beginLoop(tag + "_v", 0, V, 1, par.outer);
        b.beginBlock(tag + "_bounds");
        auto start = b.read(offsb, b.iter(v));
        auto end = b.read(offsb, b.add(b.iter(v), b.cst(1.0)));
        b.endBlock();
        auto e = b.beginLoopDyn(tag + "_e", Bound::dynamic(start),
                                Bound::dynamic(end), Bound(1));
        b.beginBlock(tag + "_gather");
        auto nid = b.read(nbrb, b.iter(e));
        auto contrib = b.mul(b.read(src, nid), b.read(invb, nid));
        auto sum = b.reduce(OpKind::RedAdd, contrib, e);
        b.endBlock();
        b.endLoop();
        b.beginBlock(tag + "_wr");
        b.write(dst, b.iter(v),
                b.add(b.cst(0.15 / V), b.mul(b.cst(0.85), sum)));
        b.endBlock();
        b.endLoop();
        std::swap(src, dst);
    }
    emitStore(b, src, dRank, V, 0, loadPar, "str");

    w.dramInputs[dOffs.v] = offs;
    w.dramInputs[dNbr.v] = nbrs;
    w.dramInputs[dInv.v] = invDeg;
    w.nominalFlops = double(iters) * (2.0 * E + 3.0 * V);
    w.elements = static_cast<double>(E * iters);
    return w;
}

Workload
buildBs(const WorkloadConfig &cfg)
{
    Workload w;
    w.name = "bs";
    w.computeBound = true;
    Rng rng(cfg.seed);

    const int64_t N = 512 * cfg.scale;
    ParSplit par = splitPar(cfg.par);

    Program &p = w.program;
    Builder b(p);
    auto dS = p.addTensor("dS", MemSpace::Dram, N);
    auto dK = p.addTensor("dK", MemSpace::Dram, N);
    auto dT = p.addTensor("dT", MemSpace::Dram, N);
    auto dCall = p.addTensor("dCall", MemSpace::Dram, N);
    auto dPut = p.addTensor("dPut", MemSpace::Dram, N);

    // Fully streaming: one deep hyperblock per option, parallelized
    // across lanes and spatial clones. The ~30-op datapath overflows a
    // single PCU and must be partitioned (paper §III-B1).
    const double r = 0.02, sigma = 0.25;
    auto i = b.beginLoop("opt", 0, N, 1, cfg.par);
    b.beginBlock("bs_b");
    auto S = b.read(dS, b.iter(i));
    auto K = b.read(dK, b.iter(i));
    auto T = b.read(dT, b.iter(i));
    auto sqrtT = b.unary(OpKind::Sqrt, T);
    auto sigSqrtT = b.mul(b.cst(sigma), sqrtT);
    auto lnSK = b.unary(OpKind::Log, b.div(S, K));
    auto num = b.add(lnSK,
                     b.mul(b.cst(r + 0.5 * sigma * sigma), T));
    auto d1 = b.div(num, sigSqrtT);
    auto d2 = b.sub(d1, sigSqrtT);
    // Logistic approximation of the normal CDF:
    // N(x) ~= sigmoid(1.702 x).
    auto nd1 = b.unary(OpKind::Sigmoid, b.mul(d1, b.cst(1.702)));
    auto nd2 = b.unary(OpKind::Sigmoid, b.mul(d2, b.cst(1.702)));
    auto nmd1 = b.sub(b.cst(1.0), nd1);
    auto nmd2 = b.sub(b.cst(1.0), nd2);
    auto disc = b.unary(OpKind::Exp, b.mul(b.cst(-r), T));
    auto Kdisc = b.mul(K, disc);
    auto call = b.sub(b.mul(S, nd1), b.mul(Kdisc, nd2));
    auto put = b.sub(b.mul(Kdisc, nmd2), b.mul(S, nmd1));
    b.write(dCall, b.iter(i), call);
    b.write(dPut, b.iter(i), put);
    b.endBlock();
    b.endLoop();
    (void)par;

    w.dramInputs[dS.v] = randomData(rng, N, 20.0, 120.0);
    w.dramInputs[dK.v] = randomData(rng, N, 20.0, 120.0);
    w.dramInputs[dT.v] = randomData(rng, N, 0.1, 2.0);
    w.nominalFlops = 30.0 * N;
    w.elements = static_cast<double>(N);
    return w;
}

Workload
buildSort(const WorkloadConfig &cfg)
{
    Workload w;
    w.name = "sort";
    w.computeBound = false;
    Rng rng(cfg.seed);

    const int64_t N = 64 * cfg.scale;
    ParSplit par = splitPar(std::min(cfg.par, 16));
    const int loadPar = std::max(16, std::min(cfg.par, 32));

    Program &p = w.program;
    Builder b(p);
    auto dIn = p.addTensor("dIn", MemSpace::Dram, N);
    auto dOut = p.addTensor("dOut", MemSpace::Dram, N);
    auto A = p.addTensor("bufA", MemSpace::OnChip, N);
    auto B = p.addTensor("bufB", MemSpace::OnChip, N);

    emitLoad(b, dIn, A, N, 0, loadPar, "ldin");

    // Odd-even transposition sort: N statically emitted ping-pong
    // passes. dst[i] = min/max of its pair in src.
    TensorId src = A, dst = B;
    for (int64_t pass = 0; pass < N; ++pass) {
        int64_t parity = pass % 2;
        std::string tag = "p";
        tag += std::to_string(pass);
        auto i = b.beginLoop(tag, 0, N, 1, par.inner);
        b.beginBlock(tag + "_b");
        // pairBase = parity + 2*floor((i - parity) / 2), clamped.
        auto shifted = b.sub(b.iter(i), b.cst(double(parity)));
        auto half = b.unary(OpKind::Floor,
                            b.div(shifted, b.cst(2.0)));
        auto pairBase = b.add(b.mul(half, b.cst(2.0)),
                              b.cst(double(parity)));
        auto lo = b.binary(OpKind::Max, pairBase, b.cst(0.0));
        auto hi = b.binary(OpKind::Min, b.add(pairBase, b.cst(1.0)),
                           b.cst(double(N - 1)));
        auto va = b.read(src, lo);
        auto vb = b.read(src, hi);
        auto isLo = b.binary(OpKind::CmpEq, b.iter(i), lo);
        auto inPair =
            b.binary(OpKind::And,
                     b.binary(OpKind::CmpGe, b.iter(i), b.cst(0.0)),
                     b.binary(OpKind::CmpNe, lo, hi));
        auto mn = b.binary(OpKind::Min, va, vb);
        auto mx = b.binary(OpKind::Max, va, vb);
        auto swapped = b.select(isLo, mn, mx);
        auto self = b.read(src, b.iter(i));
        b.write(dst, b.iter(i), b.select(inPair, swapped, self));
        b.endBlock();
        b.endLoop();
        std::swap(src, dst);
    }
    emitStore(b, src, dOut, N, 0, loadPar, "stout");

    w.dramInputs[dIn.v] = randomInts(rng, N, 0, 999);
    w.nominalFlops = 4.0 * double(N) * N;
    w.elements = static_cast<double>(N);
    return w;
}

Workload
buildRf(const WorkloadConfig &cfg)
{
    Workload w;
    w.name = "rf";
    w.computeBound = false; // Gather/BW bound at scale (Fig. 9a).
    Rng rng(cfg.seed);

    const int64_t N = 256 * cfg.scale; // Samples.
    const int64_t T = 8;              // Trees.
    const int64_t depth = 4;
    const int64_t nodes = 31; // Complete binary tree, 4 levels + leaves.
    const int64_t F = 8;      // Features.
    ParSplit par = splitPar(cfg.par);
    const int loadPar = std::max(16, std::min(cfg.par, 32));

    Program &p = w.program;
    Builder b(p);
    auto dX = p.addTensor("dXrf", MemSpace::Dram, N * F);
    auto dFeat = p.addTensor("dFeat", MemSpace::Dram, T * nodes);
    auto dThr = p.addTensor("dThr", MemSpace::Dram, T * nodes);
    auto dVal = p.addTensor("dVal", MemSpace::Dram, T * nodes);
    auto dOut = p.addTensor("dOutRf", MemSpace::Dram, N);

    auto featb = p.addTensor("featb", MemSpace::OnChip, T * nodes);
    auto thrb = p.addTensor("thrb", MemSpace::OnChip, T * nodes);
    auto valb = p.addTensor("valb", MemSpace::OnChip, T * nodes);
    auto outb = p.addTensor("outrf", MemSpace::OnChip, N);

    emitLoad(b, dFeat, featb, T * nodes, 0, loadPar, "ldf");
    emitLoad(b, dThr, thrb, T * nodes, 0, loadPar, "ldt");
    emitLoad(b, dVal, valb, T * nodes, 0, loadPar, "ldv");

    auto s = b.beginLoop("s", 0, N, 1, par.outer);
    auto t = b.beginLoop("t", 0, T);
    b.beginBlock("walk");
    // Chained data-dependent gathers: node index evolves per level.
    OpId node = b.cst(0.0);
    auto tbase = b.mul(b.iter(t), b.cst(double(nodes)));
    for (int64_t d = 0; d < depth; ++d) {
        auto naddr = b.add(tbase, node);
        auto feat = b.read(featb, naddr);
        auto thr = b.read(thrb, naddr);
        // Feature vectors stream from DRAM: rf is bandwidth-bound at
        // scale (paper Fig. 9a).
        auto xv = b.read(dX, b.add(b.mul(b.iter(s), b.cst(double(F))),
                                   feat));
        auto goRight = b.binary(OpKind::CmpGt, xv, thr);
        node = b.add(b.add(b.mul(node, b.cst(2.0)), b.cst(1.0)),
                     goRight);
    }
    auto leaf = b.read(valb, b.add(tbase, node));
    auto vote = b.reduce(OpKind::RedAdd, leaf, t);
    b.endBlock();
    b.endLoop();
    b.beginBlock("pred");
    b.write(outb, b.iter(s), b.div(vote, b.cst(double(T))));
    b.endBlock();
    b.endLoop();
    emitStore(b, outb, dOut, N, 0, loadPar, "stp");

    w.dramInputs[dX.v] = randomData(rng, N * F, 0.0, 1.0);
    w.dramInputs[dFeat.v] = randomInts(rng, T * nodes, 0, F - 1);
    w.dramInputs[dThr.v] = randomData(rng, T * nodes, 0.2, 0.8);
    w.dramInputs[dVal.v] = randomData(rng, T * nodes, 0.0, 1.0);
    w.nominalFlops = double(N) * T * depth * 4.0;
    w.elements = static_cast<double>(N);
    return w;
}

Workload
buildMs(const WorkloadConfig &cfg)
{
    Workload w;
    w.name = "ms";
    w.computeBound = true;
    Rng rng(cfg.seed);

    const int64_t N = 512 * cfg.scale;
    const int64_t window = 16;
    ParSplit par = splitPar(cfg.par);
    const int loadPar = std::max(16, std::min(cfg.par, 32));

    Program &p = w.program;
    Builder b(p);
    auto dIn = p.addTensor("dInMs", MemSpace::Dram, N + window);
    auto dOut = p.addTensor("dOutMs", MemSpace::Dram, N);
    auto inb = p.addTensor("inms", MemSpace::OnChip, N + window);
    auto outb = p.addTensor("outms", MemSpace::OnChip, N);

    emitLoad(b, dIn, inb, N + window, 0, loadPar, "ldin");

    // Windowed moving average: out[i] = mean(in[i .. i+w)).
    auto i = b.beginLoop("w_i", 0, N, 1, par.outer);
    auto j = b.beginLoop("w_j", 0, window, 1, par.inner);
    b.beginBlock("win");
    auto v = b.read(inb, b.add(b.iter(i), b.iter(j)));
    auto sum = b.reduce(OpKind::RedAdd, v, j);
    b.endBlock();
    b.endLoop();
    b.beginBlock("wr");
    b.write(outb, b.iter(i), b.div(sum, b.cst(double(window))));
    b.endBlock();
    b.endLoop();
    emitStore(b, outb, dOut, N, 0, loadPar, "stout");

    w.dramInputs[dIn.v] = randomData(rng, N + window, -1.0, 1.0);
    w.nominalFlops = double(N) * window + N;
    w.elements = static_cast<double>(N);
    return w;
}

} // namespace sara::workloads
