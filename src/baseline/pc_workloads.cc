#include "baseline/pc_workloads.h"

#include "support/logging.h"
#include "workloads/common.h"

namespace sara::baseline {

using namespace ir;
using namespace workloads;

Workload
buildPcGda(const WorkloadConfig &cfg)
{
    Workload w;
    w.name = "gda";
    w.computeBound = true;
    Rng rng(cfg.seed);

    const int64_t N = 128 * cfg.scale, D = 12;
    ParSplit par = splitPar(cfg.par);

    Program &p = w.program;
    Builder b(p);
    auto dX = p.addTensor("dX", MemSpace::Dram, N * D);
    auto dCov = p.addTensor("dCov", MemSpace::Dram, D * D);

    // PC-era duplication: one x copy per reader.
    auto xbi = p.addTensor("xbi", MemSpace::OnChip, N * D);
    auto xbj = p.addTensor("xbj", MemSpace::OnChip, N * D);
    auto covb = p.addTensor("covb", MemSpace::OnChip, D * D);

    emitLoad(b, dX, xbi, N * D, 0, 16, "ldxi");
    emitLoad(b, dX, xbj, N * D, 0, 16, "ldxj");

    // Uncentered second-moment matrix (the PC-expressible variant).
    auto i = b.beginLoop("ci", 0, D, 1, par.outer);
    auto j = b.beginLoop("cj", 0, D);
    {
        auto n = b.beginLoop("cn", 0, N, 1, par.inner);
        b.beginBlock("cacc");
        // Feature-major staging (x[d*N + n]): conflict-free n-vectors.
        auto xi = b.read(xbi, b.add(b.mul(b.iter(i), b.cst(double(N))),
                                    b.iter(n)));
        auto xj = b.read(xbj, b.add(b.mul(b.iter(j), b.cst(double(N))),
                                    b.iter(n)));
        auto s = b.reduce(OpKind::RedAdd, b.mul(xi, xj), n);
        b.endBlock();
        b.endLoop();
        b.beginBlock("cwr");
        b.write(covb, b.add(b.mul(b.iter(i), b.cst(double(D))),
                            b.iter(j)),
                b.div(s, b.cst(double(N))));
        b.endBlock();
    }
    b.endLoop();
    b.endLoop();
    emitStore(b, covb, dCov, D * D, 0, 16, "stcov");

    w.dramInputs[dX.v] = randomData(rng, N * D, -2.0, 2.0);
    w.nominalFlops = 2.0 * double(D) * D * N;
    w.elements = static_cast<double>(N);
    return w;
}

Workload
buildPcKmeans(const WorkloadConfig &cfg)
{
    Workload w;
    w.name = "kmeans";
    w.computeBound = true;
    Rng rng(cfg.seed);

    const int64_t N = 128 * cfg.scale, D = 8, K = 4;
    const int iters = 2;
    ParSplit par = splitPar(cfg.par);

    Program &p = w.program;
    Builder b(p);
    auto dX = p.addTensor("dX", MemSpace::Dram, N * D);
    auto dXT = p.addTensor("dXT", MemSpace::Dram, N * D);
    auto dC = p.addTensor("dC", MemSpace::Dram, K * D);
    auto dOut = p.addTensor("dOut", MemSpace::Dram, K * D);

    // Centroid chain: load -> it0 -> it1 -> store (one W/R each).
    std::vector<TensorId> cent;
    for (int it = 0; it <= iters; ++it)
        cent.push_back(p.addTensor("cent" + std::to_string(it),
                                   MemSpace::OnChip, K * D));
    emitLoad(b, dC, cent[0], K * D, 0, 8, "ldc");

    for (int it = 0; it < iters; ++it) {
        std::string tag = "it" + std::to_string(it);
        // PC reloads x from DRAM for each consumer of each iteration.
        auto xbA = p.addTensor("xa_" + tag, MemSpace::OnChip, N * D);
        auto xbU = p.addTensor("xu_" + tag, MemSpace::OnChip, N * D);
        emitLoad(b, dX, xbA, N * D, 0, 16, tag + "_lda");
        emitLoad(b, dXT, xbU, N * D, 0, 16, tag + "_ldu");
        auto distb = p.addTensor("dist_" + tag, MemSpace::OnChip, K);
        auto bestb = p.addTensor("best_" + tag, MemSpace::OnChip, N);

        auto n = b.beginLoop(tag + "_n", 0, N, 1, par.outer);
        {
            auto k = b.beginLoop(tag + "_k", 0, K);
            auto d = b.beginLoop(tag + "_d", 0, D, 1,
                                 std::min<int>(par.inner, 8));
            b.beginBlock(tag + "_dist");
            auto xv = b.read(xbA,
                             b.add(b.mul(b.iter(n), b.cst(double(D))),
                                   b.iter(d)));
            auto cv = b.read(cent[it],
                             b.add(b.mul(b.iter(k), b.cst(double(D))),
                                   b.iter(d)));
            auto diff = b.sub(xv, cv);
            auto dist = b.reduce(OpKind::RedAdd, b.mul(diff, diff), d);
            b.endBlock();
            b.endLoop();
            b.beginBlock(tag + "_wd");
            b.write(distb, b.iter(k), dist);
            auto minD = b.reduce(OpKind::RedMin, dist, k);
            b.endBlock();
            b.endLoop();

            auto k2 = b.beginLoop(tag + "_k2", 0, K);
            b.beginBlock(tag + "_arg");
            auto dv = b.read(distb, b.iter(k2));
            auto isMin = b.binary(OpKind::CmpEq, dv, minD);
            auto cand = b.select(isMin, b.iter(k2), b.cst(-1.0));
            auto bestk = b.reduce(OpKind::RedMax, cand, k2);
            b.endBlock();
            b.endLoop();
            b.beginBlock(tag + "_wb");
            b.write(bestb, b.iter(n), bestk);
            b.endBlock();
        }
        b.endLoop();

        auto k = b.beginLoop(tag + "_uk", 0, K);
        auto d = b.beginLoop(tag + "_ud", 0, D);
        {
            auto nn = b.beginLoop(tag + "_un", 0, N, 1, par.inner);
            b.beginBlock(tag + "_acc");
            auto bv = b.read(bestb, b.iter(nn));
            auto mine = b.binary(OpKind::CmpEq, bv, b.iter(k));
            auto xv = b.read(xbU,
                             b.add(b.mul(b.iter(d), b.cst(double(N))),
                                   b.iter(nn)));
            auto sum = b.reduce(OpKind::RedAdd,
                                b.select(mine, xv, b.cst(0.0)), nn);
            auto cnt = b.reduce(OpKind::RedAdd,
                                b.select(mine, b.cst(1.0), b.cst(0.0)),
                                nn);
            b.endBlock();
            b.endLoop();
            b.beginBlock(tag + "_upd");
            auto denom = b.binary(OpKind::Max, cnt, b.cst(1.0));
            b.write(cent[it + 1],
                    b.add(b.mul(b.iter(k), b.cst(double(D))),
                          b.iter(d)),
                    b.div(sum, denom));
            b.endBlock();
        }
        b.endLoop();
        b.endLoop();
    }
    emitStore(b, cent[iters], dOut, K * D, 0, 8, "stc");

    auto xdata = randomData(rng, N * D, 0.0, 4.0);
    std::vector<double> xt(N * D);
    for (int64_t nn = 0; nn < N; ++nn)
        for (int64_t dd = 0; dd < D; ++dd)
            xt[dd * N + nn] = xdata[nn * D + dd];
    w.dramInputs[dX.v] = std::move(xdata);
    w.dramInputs[dXT.v] = std::move(xt);
    w.dramInputs[dC.v] = randomData(rng, K * D, 0.0, 4.0);
    w.nominalFlops = double(iters) * (3.0 * N * K * D + 2.0 * K * D * N);
    w.elements = static_cast<double>(N);
    return w;
}

Workload
buildPcLogreg(const WorkloadConfig &cfg)
{
    Workload w;
    w.name = "logreg";
    w.computeBound = false;
    Rng rng(cfg.seed);

    const int64_t N = 256 * cfg.scale, D = 16;
    const int iters = 2;
    ParSplit par = splitPar(cfg.par);

    Program &p = w.program;
    Builder b(p);
    auto dX = p.addTensor("dX", MemSpace::Dram, N * D);
    auto dYl = p.addTensor("dYl", MemSpace::Dram, N);
    auto dWout = p.addTensor("dWout", MemSpace::Dram, D);

    // Weight chain with one (writer, reader) pair per stage: w0 feeds
    // iteration 0's dot stage and its update stage via two copies.
    std::vector<TensorId> wDot, wUpd;
    for (int it = 0; it <= iters; ++it) {
        wDot.push_back(p.addTensor("wdot" + std::to_string(it),
                                   MemSpace::OnChip, D));
        wUpd.push_back(p.addTensor("wupd" + std::to_string(it),
                                   MemSpace::OnChip, D));
    }

    for (int it = 0; it < iters; ++it) {
        std::string tag = "lr" + std::to_string(it);
        auto xb1 = p.addTensor("x1_" + tag, MemSpace::OnChip, N * D);
        auto xb2 = p.addTensor("x2_" + tag, MemSpace::OnChip, N * D);
        auto yb = p.addTensor("y_" + tag, MemSpace::OnChip, N);
        emitLoad(b, dX, xb1, N * D, 0, 16, tag + "_ld1");
        emitLoad(b, dX, xb2, N * D, 0, 16, tag + "_ld2");
        emitLoad(b, dYl, yb, N, 0, 16, tag + "_ldy");

        auto errb = p.addTensor("err_" + tag, MemSpace::OnChip, N);
        auto n = b.beginLoop(tag + "_n", 0, N, 1, par.outer);
        {
            auto d = b.beginLoop(tag + "_d", 0, D, 1, par.inner);
            b.beginBlock(tag + "_dot");
            auto xv = b.read(xb1,
                             b.add(b.mul(b.iter(n), b.cst(double(D))),
                                   b.iter(d)));
            auto wv = b.read(wDot[it], b.iter(d));
            auto dot = b.reduce(OpKind::RedAdd, b.mul(xv, wv), d);
            b.endBlock();
            b.endLoop();
            b.beginBlock(tag + "_err");
            auto pred = b.unary(OpKind::Sigmoid, dot);
            b.write(errb, b.iter(n),
                    b.sub(pred, b.read(yb, b.iter(n))));
            b.endBlock();
        }
        b.endLoop();

        auto d2 = b.beginLoop(tag + "_gd", 0, D);
        {
            auto n2 = b.beginLoop(tag + "_gn", 0, N, 1, par.inner);
            b.beginBlock(tag + "_grad");
            auto ev = b.read(errb, b.iter(n2));
            auto xv = b.read(xb2,
                             b.add(b.mul(b.iter(n2), b.cst(double(D))),
                                   b.iter(d2)));
            auto g = b.reduce(OpKind::RedAdd, b.mul(ev, xv), n2);
            b.endBlock();
            b.endLoop();
            b.beginBlock(tag + "_upd");
            auto wOld = b.read(wUpd[it], b.iter(d2));
            auto wNew = b.sub(wOld, b.mul(g, b.cst(0.01 / N)));
            b.write(wDot[it + 1], b.iter(d2), wNew);
            b.write(wUpd[it + 1], b.iter(d2), wNew);
            b.endBlock();
        }
        b.endLoop();
    }
    emitStore(b, wDot[iters], dWout, D, 0, 16, "stw");

    w.dramInputs[dX.v] = randomData(rng, N * D, -1.0, 1.0);
    w.dramInputs[dYl.v] = randomInts(rng, N, 0, 1);
    w.nominalFlops = double(iters) * 4.0 * N * D;
    w.elements = static_cast<double>(N);
    return w;
}

Workload
buildPcSgd(const WorkloadConfig &cfg)
{
    Workload w;
    w.name = "sgd";
    w.computeBound = false;
    Rng rng(cfg.seed);

    // Statically emitted mini-batches (the loop-carried w chain forces
    // the same ping-pong duplication as logreg).
    const int64_t batches = 4, batch = 32 * cfg.scale, D = 16;
    const int64_t N = batches * batch;
    ParSplit par = splitPar(cfg.par);

    Program &p = w.program;
    Builder b(p);
    auto dX = p.addTensor("dX", MemSpace::Dram, N * D);
    auto dYl = p.addTensor("dYl", MemSpace::Dram, N);
    auto dWout = p.addTensor("dWout", MemSpace::Dram, D);

    std::vector<TensorId> wDot, wUpd;
    for (int64_t bt = 0; bt <= batches; ++bt) {
        wDot.push_back(p.addTensor("wdot" + std::to_string(bt),
                                   MemSpace::OnChip, D));
        wUpd.push_back(p.addTensor("wupd" + std::to_string(bt),
                                   MemSpace::OnChip, D));
    }

    for (int64_t bt = 0; bt < batches; ++bt) {
        std::string tag = "b";
        tag += std::to_string(bt);
        auto xb1 = p.addTensor("x1_" + tag, MemSpace::OnChip, batch * D);
        auto xb2 = p.addTensor("x2_" + tag, MemSpace::OnChip, batch * D);
        auto yb = p.addTensor("y_" + tag, MemSpace::OnChip, batch);
        emitLoad(b, dX, xb1, batch * D, bt * batch * D, 16,
                 tag + "_ld1");
        emitLoad(b, dX, xb2, batch * D, bt * batch * D, 16,
                 tag + "_ld2");
        emitLoad(b, dYl, yb, batch, bt * batch, 16, tag + "_ldy");

        auto errb = p.addTensor("err_" + tag, MemSpace::OnChip, batch);
        auto n = b.beginLoop(tag + "_n", 0, batch, 1, par.outer);
        {
            auto d = b.beginLoop(tag + "_d", 0, D, 1, par.inner);
            b.beginBlock(tag + "_dot");
            auto xv = b.read(xb1,
                             b.add(b.mul(b.iter(n), b.cst(double(D))),
                                   b.iter(d)));
            auto wv = b.read(wDot[bt], b.iter(d));
            auto dot = b.reduce(OpKind::RedAdd, b.mul(xv, wv), d);
            b.endBlock();
            b.endLoop();
            b.beginBlock(tag + "_err");
            auto pred = b.unary(OpKind::Sigmoid, dot);
            b.write(errb, b.iter(n),
                    b.sub(pred, b.read(yb, b.iter(n))));
            b.endBlock();
        }
        b.endLoop();

        auto d2 = b.beginLoop(tag + "_gd", 0, D);
        {
            auto n2 = b.beginLoop(tag + "_gn", 0, batch, 1, par.inner);
            b.beginBlock(tag + "_grad");
            auto ev = b.read(errb, b.iter(n2));
            auto xv = b.read(xb2,
                             b.add(b.mul(b.iter(n2), b.cst(double(D))),
                                   b.iter(d2)));
            auto g = b.reduce(OpKind::RedAdd, b.mul(ev, xv), n2);
            b.endBlock();
            b.endLoop();
            b.beginBlock(tag + "_upd");
            auto wOld = b.read(wUpd[bt], b.iter(d2));
            auto wNew = b.sub(wOld, b.mul(g, b.cst(0.02 / batch)));
            b.write(wDot[bt + 1], b.iter(d2), wNew);
            b.write(wUpd[bt + 1], b.iter(d2), wNew);
            b.endBlock();
        }
        b.endLoop();
    }
    emitStore(b, wDot[batches], dWout, D, 0, 16, "stw");

    w.dramInputs[dX.v] = randomData(rng, N * D, -1.0, 1.0);
    w.dramInputs[dYl.v] = randomInts(rng, N, 0, 1);
    w.nominalFlops = double(batches) * 4.0 * batch * D;
    w.elements = static_cast<double>(N);
    return w;
}

Workload
buildPcByName(const std::string &name, const WorkloadConfig &cfg)
{
    if (name == "kmeans")
        return buildPcKmeans(cfg);
    if (name == "gda")
        return buildPcGda(cfg);
    if (name == "logreg")
        return buildPcLogreg(cfg);
    if (name == "sgd")
        return buildPcSgd(cfg);
    fatal("no PC-era variant of workload '", name, "'");
}

} // namespace sara::baseline
