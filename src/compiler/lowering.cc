#include "compiler/lowering.h"

#include <algorithm>
#include <map>
#include <set>
#include <unordered_set>

#include "compiler/cmmc.h"
#include "support/logging.h"

namespace sara::compiler {

using namespace ir;
using dfg::AccessDir;
using dfg::InputBinding;
using dfg::InputRole;
using dfg::OutputBinding;
using dfg::StreamId;
using dfg::StreamKind;
using dfg::VuId;
using dfg::VuKind;

namespace {

/** Round v up to a multiple of m. */
int64_t
roundUp(int64_t v, int64_t m)
{
    return ((v + m - 1) / m) * m;
}

/** Nodes of the hierarchical-merge tree for a fan of `leaves`. */
int
mergeTreeCost(int leaves, int fan)
{
    int cost = 0;
    while (leaves > 1) {
        leaves = (leaves + fan - 1) / fan;
        cost += leaves;
    }
    return cost;
}

struct Lowerer
{
    const Program &p;
    const CompilerOptions &opt;
    Lowering out;

    std::vector<size_t> order;
    std::vector<TensorAccess> access;

    struct TensorPlan
    {
        bool hasVmu = false;
        bool fifoLower = false;
        int depth = 1;
        int numShards = 1;
        int64_t interleave = 0;
        std::vector<int> staticShard; ///< Per accessor; -1 = dynamic.
        std::vector<VuId> shardVmus;
        CtrlId rotateScope; ///< Loop whose iterations rotate buffers.
    };
    std::vector<TensorPlan> plans;

    /**
     * Per-hyperblock lowering state. A block lowers to one VCU per
     * "read stage": a read whose address is streamed (indirect) breaks
     * the block into request and response units (paper §III-A1) so the
     * VCU<->memory request/response loop stays acyclic.
     */
    struct BlockInfo
    {
        CtrlId id;
        std::vector<CtrlId> loops;
        int vec = 1;
        /** Stage index -> VCU (sparse; empty when copy-elided). */
        std::map<int, VuId> stages;
        /** op id -> (stage index, lop index). */
        std::unordered_map<int32_t, std::pair<int, int>> lopAt;
        std::unordered_map<int32_t, int> opStage;
        std::vector<VuId> engines; ///< Stage VCUs + ports + AGs.
    };
    std::unordered_map<int32_t, BlockInfo> blocks;
    std::unordered_map<int32_t, CtrlId> engineBlock; ///< VuId.v -> block.

    /** fifo-lowered tensors: writer unit + data lop. */
    std::unordered_map<int32_t, std::pair<VuId, int>> fifoSrc;

    /** Ops with uses outside their own block (incl. bounds/conds). */
    std::unordered_set<int32_t> externallyUsed;

    /** Live ops: everything else (mostly address arithmetic duplicated
     *  into memory engines by xbar-elm) is never lowered into a VCU. */
    std::unordered_set<int32_t> live;

    /** Import dedupe: (op id, consumer unit) -> consumer lop index. */
    std::map<std::pair<int32_t, int32_t>, int> importMap;
    /** Slice rematerialization memo: (op id, unit) -> lop index. */
    std::map<std::pair<int32_t, int32_t>, int> sliceMemo;

    explicit Lowerer(const Program &program, const CompilerOptions &options)
        : p(program), opt(options)
    {
        order = p.programOrder();
        access = collectAccessors(p);
    }

    dfg::Vudfg &g() { return out.graph; }

    // ------------------------------------------------------------------
    // Tensor planning
    // ------------------------------------------------------------------

    /** Structural equality of the sub-LCA loop nests plus address
     *  correspondence (identical coefficients, dense injective
     *  layout): the msr "lock-step" requirement. */
    bool
    lockStepStreams(const Accessor &w, const Accessor &r, CtrlId lca) const
    {
        if (!w.form || !r.form)
            return false;
        auto below = [&](CtrlId block) {
            std::vector<CtrlId> ls;
            for (CtrlId l : p.enclosingLoops(block))
                if (!(l == lca) && !p.isAncestor(l, lca))
                    ls.push_back(l);
            return ls;
        };
        auto lw = below(w.block), lr = below(r.block);
        if (lw.size() != lr.size())
            return false;
        for (size_t i = 0; i < lw.size(); ++i) {
            const CtrlNode &a = p.ctrl(lw[i]);
            const CtrlNode &b = p.ctrl(lr[i]);
            if (a.kind != CtrlKind::Loop || b.kind != CtrlKind::Loop)
                return false;
            if (!a.min.isConst || !a.max.isConst || !a.step.isConst ||
                !b.min.isConst || !b.max.isConst || !b.step.isConst)
                return false;
            if (a.min.cval != b.min.cval || a.max.cval != b.max.cval ||
                a.step.cval != b.step.cval || a.vec != b.vec)
                return false;
            if (w.form->coeff(lw[i]) != r.form->coeff(lr[i]))
                return false;
            if (w.form->coeff(lw[i]) == 0)
                return false; // Repeated addresses: not injective.
        }
        // Coefficients on shared (at-or-above LCA) loops must agree.
        for (CtrlId l : p.enclosingLoops(w.block)) {
            if (std::find(lw.begin(), lw.end(), l) != lw.end())
                continue;
            if (w.form->coeff(l) != r.form->coeff(l))
                return false;
        }
        if (w.form->base != r.form->base)
            return false;
        // Conservative injectivity: each |coeff * step| strictly
        // dominates the reachable sum of finer terms.
        std::vector<std::pair<int64_t, int64_t>> terms;
        for (CtrlId l : lw) {
            const CtrlNode &n = p.ctrl(l);
            int64_t trips =
                (n.max.cval - n.min.cval + n.step.cval - 1) / n.step.cval;
            terms.push_back({std::abs(w.form->coeff(l) * n.step.cval),
                             trips});
        }
        std::sort(terms.begin(), terms.end());
        int64_t reach = 0;
        for (auto &[c, trips] : terms) {
            if (c <= reach)
                return false;
            reach += c * (trips - 1);
        }
        return true;
    }

    bool
    branchOrWhileBetween(CtrlId scope, CtrlId block) const
    {
        for (CtrlId cur = block; cur.valid() && cur != scope;
             cur = p.ctrl(cur).parent) {
            if (cur == block)
                continue;
            auto kind = p.ctrl(cur).kind;
            if (kind == CtrlKind::Branch || kind == CtrlKind::While)
                return true;
        }
        return false;
    }

    CtrlId
    lcaOfAccessors(const std::vector<Accessor> &acc) const
    {
        CtrlId l = acc[0].block;
        for (size_t i = 1; i < acc.size(); ++i)
            l = p.lca(l, acc[i].block);
        return l;
    }

    /** Innermost loop at-or-above `scope` (the pipeline loop). */
    CtrlId
    pipelineLoop(CtrlId scope) const
    {
        for (CtrlId cur = scope; cur.valid(); cur = p.ctrl(cur).parent) {
            auto kind = p.ctrl(cur).kind;
            if (kind == CtrlKind::Loop || kind == CtrlKind::While)
                return cur;
        }
        return CtrlId{};
    }

    /**
     * Is there a dataflow path from `w.block` to `r.block` through
     * on-chip tensors other than `t` itself? FIFO-lowering t in that
     * case is a deadlock waiting to happen: the reader joins the FIFO
     * with data arriving over the longer reconvergent path, so it
     * cannot drain the FIFO until that path delivers — while the
     * producer keeps pushing. With a diamond (residual/skip
     * connections) whose tensor exceeds the FIFO depth, both sides
     * wedge. Such joins keep their VMU; straight-line producer ->
     * consumer chains are unaffected.
     */
    bool
    reconvergentPath(const Accessor &w, const Accessor &r,
                     TensorId t) const
    {
        // Block-level dataflow edges: tensor writer block -> reader
        // block labeled with the connecting tensor (on-chip only; DRAM
        // round-trips go through AGs, not backpressured streams), plus
        // unlabeled cross-block operand streams (reduction results and
        // other SSA values consumed in a different hyperblock).
        std::map<int32_t, std::vector<std::pair<int32_t, int32_t>>> adj;
        for (const auto &other : access) {
            if (p.tensor(other.tensor).space != MemSpace::OnChip)
                continue;
            for (const auto &aw : other.accessors) {
                if (!aw.isWrite)
                    continue;
                for (const auto &ar : other.accessors) {
                    if (ar.isWrite || ar.block == aw.block)
                        continue;
                    adj[aw.block.v].push_back(
                        {ar.block.v, other.tensor.v});
                }
            }
        }
        for (size_t i = 0; i < p.numOps(); ++i) {
            const Op &o = p.op(OpId(static_cast<int32_t>(i)));
            for (OpId d : o.operands) {
                CtrlId def = p.op(d).block;
                if (def.valid() && !(def == o.block))
                    adj[def.v].push_back({o.block.v, -1});
            }
        }
        // Only *multi-hop* paths W -> X -> ... -> R are hazards: a
        // direct side stream W -> R (a sibling-block reduction result,
        // the write+reduce idiom) delivers at the same LCA-derived
        // rate as the FIFO and cannot starve it.
        std::vector<int32_t> frontier = {w.block.v};
        std::set<int32_t> seen = {w.block.v};
        while (!frontier.empty()) {
            int32_t cur = frontier.back();
            frontier.pop_back();
            auto it = adj.find(cur);
            if (it == adj.end())
                continue;
            for (auto [next, via] : it->second) {
                if (via == t.v)
                    continue; // Only paths besides t itself count.
                if (next == r.block.v) {
                    if (cur != w.block.v)
                        return true;
                    continue; // Direct edge; never traverse through R.
                }
                if (seen.insert(next).second)
                    frontier.push_back(next);
            }
        }
        return false;
    }

    bool
    qualifiesFifoLower(const TensorAccess &ta) const
    {
        if (!opt.enableMsr || ta.accessors.size() != 2)
            return false;
        const Accessor &w = ta.accessors[0];
        const Accessor &r = ta.accessors[1];
        if (!w.isWrite || r.isWrite || w.block == r.block)
            return false;
        CtrlId lca = p.lca(w.block, r.block);
        if (branchOrWhileBetween(lca, w.block) ||
            branchOrWhileBetween(lca, r.block))
            return false;
        if (!lockStepStreams(w, r, lca))
            return false;
        return !reconvergentPath(w, r, ta.tensor);
    }

    /** Writer-covers-reader span check for multibuffering. */
    bool
    qualifiesMultibuffer(const TensorAccess &ta, CtrlId pipeLoop) const
    {
        if (!opt.enableMultibuffer || !pipeLoop.valid())
            return false;
        const auto &acc = ta.accessors;
        if (acc.size() < 2 || !acc[0].isWrite)
            return false;
        for (size_t i = 1; i < acc.size(); ++i)
            if (acc[i].isWrite)
                return false; // Single-writer chains only.
        // Buffer rotation assumes one accessor round per pipeline
        // round per engine: accessors must live in distinct blocks.
        for (size_t i = 0; i < acc.size(); ++i)
            for (size_t j = i + 1; j < acc.size(); ++j)
                if (acc[i].block == acc[j].block)
                    return false;
        CtrlId lca = lcaOfAccessors(acc);
        for (const auto &a : acc) {
            if (branchOrWhileBetween(lca, a.block))
                return false;
            if (!a.form)
                return false;
            for (const auto &[loop, c] : a.form->coeffs)
                if (c != 0 &&
                    (loop == pipeLoop || p.isAncestor(loop, pipeLoop)))
                    return false;
        }
        // Writer must densely cover its span each round.
        const Accessor &w = acc[0];
        std::vector<CtrlId> wloops;
        int64_t iterations = 1;
        for (const auto &[loop, c] : w.form->coeffs) {
            if (c == 0)
                continue;
            const CtrlNode &n = p.ctrl(loop);
            if (n.kind != CtrlKind::Loop || !n.min.isConst ||
                !n.max.isConst || !n.step.isConst)
                return false;
            wloops.push_back(loop);
            iterations *=
                (n.max.cval - n.min.cval + n.step.cval - 1) / n.step.cval;
        }
        auto wspan = affineSpan(p, *w.form, wloops);
        if (!wspan || wspan->second - wspan->first + 1 != iterations)
            return false;
        for (size_t i = 1; i < acc.size(); ++i) {
            std::vector<CtrlId> rloops;
            for (const auto &[loop, c] : acc[i].form->coeffs)
                if (c != 0)
                    rloops.push_back(loop);
            auto rspan = affineSpan(p, *acc[i].form, rloops);
            if (!rspan || rspan->first < wspan->first ||
                rspan->second > wspan->second)
                return false;
        }
        return true;
    }

    void
    planTensors()
    {
        plans.resize(p.numTensors());
        for (size_t t = 0; t < p.numTensors(); ++t) {
            const Tensor &tensor = p.tensor(TensorId(t));
            TensorPlan &plan = plans[t];
            const auto &acc = access[t].accessors;
            if (tensor.space == MemSpace::Dram || acc.empty())
                continue;

            if (opt.control == ControlScheme::HierarchicalFsm) {
                int writers = 0, readers = 0;
                for (const auto &a : acc)
                    a.isWrite ? ++writers : ++readers;
                if (writers > 1 || readers > 1)
                    fatal("vanilla PC supports a single write and a "
                          "single read accessor per VMU (tensor ",
                          tensor.name, " has ", writers, "W/", readers,
                          "R)");
            }

            if (qualifiesFifoLower(access[t])) {
                plan.fifoLower = true;
                ++out.stats.fifoLoweredTensors;
                continue;
            }
            plan.hasVmu = true;

            CtrlId lca = lcaOfAccessors(acc);
            CtrlId pipe = pipelineLoop(lca);
            if (qualifiesMultibuffer(access[t], pipe)) {
                plan.depth = opt.multibufferDepth;
                plan.rotateScope = pipe;
                ++out.stats.multibufferedTensors;
            }

            // Sharding (second round when a dynamic port disables
            // multibuffering and changes the capacity math).
            for (int round = 0; round < 2; ++round) {
                int64_t perShard = std::max<int64_t>(
                    1, opt.spec.pmu.capacityWords / plan.depth);
                int sCap = static_cast<int>(
                    (tensor.size + perShard - 1) / perShard);
                int writers = 0, readers = 0;
                for (const auto &a : acc)
                    a.isWrite ? ++writers : ++readers;
                int sPar = std::max(writers, readers);
                int s = std::max(sCap, std::min(sPar, 64));
                if (opt.control == ControlScheme::HierarchicalFsm) {
                    if (sCap > 1)
                        fatal("vanilla PC cannot partition tensor ",
                              tensor.name, " (needs ", sCap, " PMUs)");
                    s = 1;
                }
                if (s <= 1) {
                    plan.numShards = 1;
                    plan.interleave = tensor.size;
                } else {
                    plan.interleave =
                        roundUp((tensor.size + s - 1) / s, 16);
                    plan.numShards = static_cast<int>(
                        (tensor.size + plan.interleave - 1) /
                        plan.interleave);
                }
                plan.staticShard.assign(acc.size(), -1);
                bool anyDynamic = false;
                for (size_t i = 0; i < acc.size(); ++i) {
                    if (plan.numShards == 1) {
                        plan.staticShard[i] = 0;
                        continue;
                    }
                    if (!acc[i].form) {
                        anyDynamic = true;
                        continue;
                    }
                    std::vector<CtrlId> loops;
                    for (const auto &[loop, c] : acc[i].form->coeffs)
                        if (c != 0)
                            loops.push_back(loop);
                    auto span = affineSpan(p, *acc[i].form, loops);
                    if (span &&
                        span->first / plan.interleave ==
                            span->second / plan.interleave) {
                        plan.staticShard[i] = static_cast<int>(
                            std::min<int64_t>(
                                span->first / plan.interleave,
                                plan.numShards - 1));
                    } else {
                        anyDynamic = true;
                    }
                }
                if (anyDynamic && plan.depth > 1 && round == 0) {
                    plan.depth = 1;
                    plan.rotateScope = CtrlId{};
                    --out.stats.multibufferedTensors;
                    continue;
                }
                break;
            }
            if (plan.numShards > 1)
                ++out.stats.shardedTensors;
            for (size_t i = 0; i < acc.size(); ++i) {
                if (plan.staticShard[i] < 0) {
                    ++out.stats.dynamicPorts;
                    out.stats.mergeUnits += mergeTreeCost(
                        plan.numShards, opt.spec.pcu.maxIn);
                }
            }
        }
    }

    void
    createVmus()
    {
        for (size_t t = 0; t < p.numTensors(); ++t) {
            TensorPlan &plan = plans[t];
            if (!plan.hasVmu)
                continue;
            const Tensor &tensor = p.tensor(TensorId(t));
            for (int s = 0; s < plan.numShards; ++s) {
                std::string name = "vmu_" + tensor.name;
                if (plan.numShards > 1) {
                    name += '#';
                    name += std::to_string(s);
                }
                VuId id = g().addUnit(VuKind::Memory, name);
                auto &u = g().unit(id);
                u.tensor = TensorId(t);
                u.bufferSize = plan.interleave;
                u.bufferDepth = plan.depth;
                u.shardIndex = s;
                u.numShards = plan.numShards;
                u.shardInterleave = plan.interleave;
                plan.shardVmus.push_back(id);
            }
        }
    }

    // ------------------------------------------------------------------
    // External-use analysis (drives copy elision)
    // ------------------------------------------------------------------

    void
    computeExternalUses()
    {
        p.forEachCtrl([&](const CtrlNode &node) {
            for (OpId oid : node.ops) {
                const Op &o = p.op(oid);
                for (OpId operand : o.operands)
                    if (p.op(operand).block != o.block)
                        externallyUsed.insert(operand.v);
            }
        });
        p.forEachCtrl([&](const CtrlNode &node) {
            auto mark = [&](const Bound &b) {
                if (!b.isConst)
                    externallyUsed.insert(b.op.v);
            };
            mark(node.min);
            mark(node.step);
            mark(node.max);
            if (node.cond.valid())
                externallyUsed.insert(node.cond.v);
        });
    }

    /**
     * Liveness: a Write is always live; other ops are live when used
     * externally or by a live op — except that the address operand of
     * a memory op whose address is computed locally at its engine
     * (affine + xbar-elm) does not keep its producers alive. Dead
     * reads (unused values) are dropped entirely, including their
     * engines and tokens.
     */
    void
    computeLiveness()
    {
        // Only ops in blocks still attached to the control tree count
        // (loop unrolling leaves orphaned originals in the arena).
        std::vector<OpId> treeOps;
        p.forEachCtrl([&](const CtrlNode &node) {
            for (OpId oid : node.ops)
                treeOps.push_back(oid);
        });
        // Direct-use lists.
        std::vector<std::vector<OpId>> users(p.numOps());
        for (OpId oid : treeOps) {
            const Op &o = p.op(oid);
            for (size_t a = 0; a < o.operands.size(); ++a) {
                if (isMemoryOp(o.kind) && a == 0)
                    continue; // Handled via accessor address rules.
                users[o.operands[a].index()].push_back(o.id);
            }
        }
        // Seed: writes and externally used ops; propagate backwards.
        std::vector<OpId> work;
        auto markLive = [&](OpId oid) {
            if (live.insert(oid.v).second)
                work.push_back(oid);
        };
        for (OpId oid : treeOps) {
            const Op &o = p.op(oid);
            if (o.kind == OpKind::Write || externallyUsed.count(o.id.v))
                markLive(o.id);
        }
        while (!work.empty()) {
            OpId oid = work.back();
            work.pop_back();
            const Op &o = p.op(oid);
            for (size_t a = 0; a < o.operands.size(); ++a) {
                bool isAddr = isMemoryOp(o.kind) && a == 0;
                if (isAddr && localAddr(accessorOf(oid)))
                    continue; // Recomputed at the memory engine.
                markLive(o.operands[a]);
            }
        }
        // A value op is only truly live if a live op consumes it (the
        // seeds cover writes/external); reads with no live users are
        // dropped from the accessor lists.
        for (auto &ta : access) {
            std::vector<Accessor> kept;
            for (auto &a : ta.accessors) {
                if (!a.isWrite && !live.count(a.op.v)) {
                    bool used = false;
                    for (OpId u : users[a.op.index()])
                        if (live.count(u.v))
                            used = true;
                    if (!used)
                        continue;
                }
                Accessor copy = a;
                copy.index = kept.size();
                kept.push_back(copy);
            }
            ta.accessors = std::move(kept);
        }
    }

    // ------------------------------------------------------------------
    // Engine construction
    // ------------------------------------------------------------------

    void
    buildCounters(dfg::VUnit &u, const BlockInfo &info)
    {
        for (size_t k = 0; k < info.loops.size(); ++k) {
            const CtrlNode &node = p.ctrl(info.loops[k]);
            dfg::Counter c;
            if (node.kind == CtrlKind::While) {
                c.isWhile = true;
            } else {
                if (node.min.isConst)
                    c.min = node.min.cval;
                if (node.step.isConst)
                    c.step = node.step.cval;
                if (node.max.isConst)
                    c.max = node.max.cval;
                if (k + 1 == info.loops.size())
                    c.vec = node.vec;
            }
            u.counters.push_back(c);
        }
    }

    int
    counterIndex(const BlockInfo &info, CtrlId loop) const
    {
        for (size_t k = 0; k < info.loops.size(); ++k)
            if (info.loops[k] == loop)
                return static_cast<int>(k);
        panic("loop ", p.ctrl(loop).name, " not in chain of block ",
              p.ctrl(info.id).name);
    }

    int
    firingLevel(const BlockInfo &info) const
    {
        return static_cast<int>(info.loops.size());
    }

    /** Emit local lops computing an affine address in `u`. */
    int
    emitAffine(dfg::VUnit &u, const BlockInfo &info, const AffineForm &f)
    {
        auto pushLop = [&](dfg::LOp lop) {
            u.lops.push_back(lop);
            return static_cast<int>(u.lops.size() - 1);
        };
        dfg::LOp base;
        base.kind = OpKind::Const;
        base.cval = static_cast<double>(f.base);
        int acc = pushLop(base);
        for (const auto &[loop, c] : f.coeffs) {
            if (c == 0)
                continue;
            dfg::LOp it;
            it.kind = OpKind::Iter;
            it.counter = counterIndex(info, loop);
            int itIdx = pushLop(it);
            int term = itIdx;
            if (c != 1) {
                dfg::LOp k;
                k.kind = OpKind::Const;
                k.cval = static_cast<double>(c);
                int kIdx = pushLop(k);
                dfg::LOp mul;
                mul.kind = OpKind::Mul;
                mul.a = itIdx;
                mul.b = kIdx;
                term = pushLop(mul);
            }
            dfg::LOp add;
            add.kind = OpKind::Add;
            add.a = acc;
            add.b = term;
            acc = pushLop(add);
        }
        return acc;
    }

    /** Create a data stream and bind it on both ends. */
    StreamId
    dataStream(VuId src, int srcLop, int pushLevel, VuId dst,
               InputRole role, int popLevel, const std::string &name,
               int vec, bool expectTrue = true)
    {
        StreamId sid = g().addStream(StreamKind::Data, src, dst, name);
        auto &s = g().stream(sid);
        s.pushLevel = pushLevel;
        s.popLevel = popLevel;
        s.vec = vec;
        s.depth = opt.spec.pcu.fifoDepth;
        g().unit(src).outputs.push_back({sid, pushLevel, srcLop});
        g().unit(dst).inputs.push_back({sid, role, popLevel, expectTrue});
        return sid;
    }

    /** The unit (and lop index) currently holding op `oid`'s value. */
    std::pair<VuId, int>
    producerOf(OpId oid) const
    {
        const Op &o = p.op(oid);
        const BlockInfo &src = blocks.at(o.block.v);
        auto it = src.lopAt.find(oid.v);
        SARA_ASSERT(it != src.lopAt.end(), "op ", oid.v,
                    " has no lowered value (block ",
                    p.ctrl(o.block).name, ")");
        return {src.stages.at(it->second.first), it->second.second};
    }

    /**
     * Import op `oid`'s value into `unit` (a stage VCU or an access
     * engine of block `info`) as a StreamIn lop; returns the lop
     * index. Same-block imports are per-firing streams between stage
     * units; cross-block imports use LCA-derived rates.
     */
    int
    importValue(BlockInfo &info, VuId unit, OpId oid)
    {
        auto key = std::make_pair(oid.v, unit.v);
        auto it = importMap.find(key);
        if (it != importMap.end())
            return it->second;

        const Op &o = p.op(oid);
        auto [srcUnit, srcLop] = producerOf(oid);
        SARA_ASSERT(!(srcUnit == unit), "self-import of op ", oid.v);
        const BlockInfo &src = blocks.at(o.block.v);

        CtrlId lca = p.lca(o.block, info.id);
        int pushLevel = levelAt(p, o.block, lca);
        int popLevel = levelAt(p, info.id, lca);
        bool perFiring = pushLevel == firingLevel(src) &&
                         popLevel == firingLevel(info);
        int vec = 1;
        if (perFiring) {
            SARA_ASSERT(src.vec == info.vec || src.vec == 1,
                        "vector-width mismatch on cross-unit stream for "
                        "op ", oid.v);
            vec = src.vec;
            // A vectorized running reduction has per-lane partial
            // accumulators; only its round-boundary (cross-lane
            // combined) value is meaningful to other units.
            if (vec > 1 && isReduceOp(o.kind))
                fatal("op ", oid.v, ": a vectorized reduction may only "
                      "be consumed outside its loop (round boundary)");
        }
        std::string name = "x";
        name += std::to_string(oid.v);
        name += '_';
        name += g().unit(unit).name;
        dataStream(srcUnit, srcLop, pushLevel, unit, InputRole::Operand,
                   popLevel, name, vec);
        dfg::LOp lop;
        lop.kind = OpKind::Const;
        lop.input = static_cast<int>(g().unit(unit).inputs.size() - 1);
        auto &vu = g().unit(unit);
        vu.lops.push_back(lop);
        int idx = static_cast<int>(vu.lops.size() - 1);
        importMap[key] = idx;
        return idx;
    }

    /** Lop index of `oid` usable inside `unit` (local or imported). */
    int
    valueIn(BlockInfo &info, VuId unit, OpId oid)
    {
        auto it = info.lopAt.find(oid.v);
        if (it != info.lopAt.end() &&
            info.stages.at(it->second.first) == unit)
            return it->second.second;
        return importValue(info, unit, oid);
    }

    /**
     * Rematerialize the backward slice of `oid` inside `unit` (a
     * request-slice VCU). Pure value ops are duplicated (xbar-elm
     * style); read responses and cross-block values are imported as
     * streams from their producing units.
     */
    int
    emitSlice(BlockInfo &info, VuId unit, OpId oid)
    {
        auto key = std::make_pair(oid.v, unit.v);
        auto memo = sliceMemo.find(key);
        if (memo != sliceMemo.end())
            return memo->second;
        const Op &o = p.op(oid);
        int idx;
        if (o.block != info.id || o.kind == OpKind::Read) {
            idx = importValue(info, unit, oid);
        } else {
            dfg::LOp lop;
            lop.kind = o.kind;
            lop.cval = o.cval;
            if (o.kind == OpKind::Iter || isReduceOp(o.kind))
                lop.counter = counterIndex(info, o.ctrl);
            int operands[3] = {-1, -1, -1};
            for (size_t i = 0; i < o.operands.size(); ++i)
                operands[i] = emitSlice(info, unit, o.operands[i]);
            lop.a = operands[0];
            lop.b = operands[1];
            lop.c = operands[2];
            auto &vu = g().unit(unit);
            vu.lops.push_back(lop);
            idx = static_cast<int>(vu.lops.size() - 1);
        }
        sliceMemo[key] = idx;
        return idx;
    }

    // ------------------------------------------------------------------
    // Read-depth stratification (request/response VCU splitting)
    // ------------------------------------------------------------------

    /** True when this accessor's address will be computed at the
     *  memory engine (no address stream needed). */
    bool
    localAddr(const Accessor &a) const
    {
        return a.form.has_value() && opt.enableXbarElm;
    }

    /**
     * Assign each op of the block to a stage (sub-VCU). Stages encode
     * the request/response splitting of §III-A1 generalized: a read's
     * response must land in a unit that fires strictly after the
     * units feeding any same-tensor accessor that precedes it in
     * program order (tokens enforce that memory order at runtime, so
     * fusing them would deadlock). Addresses of streamed-address
     * accesses live in dedicated request-slice units and do not
     * constrain response stages.
     */
    void
    computeStages(const CtrlNode &block, BlockInfo &info) const
    {
        for (OpId oid : block.ops) {
            if (!live.count(oid.v))
                continue; // Dead ops (xbar-elm'd addresses, dead reads).
            const Op &o = p.op(oid);
            int stage = 0;
            if (isMemoryOp(o.kind)) {
                // Token predecessors: earlier same-tensor accessors in
                // this block (conservative: any pair may be ordered).
                // Reads land one stage after them; writes track their
                // feeds so later accessors can order after the write.
                if (o.kind == OpKind::Read) {
                    for (OpId prev : block.ops) {
                        if (prev == oid)
                            break;
                        const Op &q = p.op(prev);
                        if (!isMemoryOp(q.kind) || q.tensor != o.tensor)
                            continue;
                        auto it = info.opStage.find(prev.v);
                        if (it != info.opStage.end())
                            stage = std::max(stage, it->second + 1);
                    }
                    // A streamed address: the request slice imports
                    // read values at stages <= stage(addrOp); the
                    // response must land strictly later.
                    if (!localAddr(accessorOf(oid))) {
                        const Op &addr = p.op(o.operands[0]);
                        auto it = info.opStage.find(addr.id.v);
                        if (addr.block == block.id &&
                            it != info.opStage.end())
                            stage = std::max(stage, it->second + 1);
                    }
                } else {
                    // Write: data operand's stage.
                    auto it = info.opStage.find(o.operands[1].v);
                    if (it != info.opStage.end() &&
                        p.op(o.operands[1]).block == block.id)
                        stage = std::max(stage, it->second);
                }
                // A streamed (non-affine) address slice imports values
                // from the address operand's stage; accesses ordered
                // after this one must clear that stage too.
                if (o.kind == OpKind::Write &&
                    !localAddr(accessorOf(oid))) {
                    const Op &addr = p.op(o.operands[0]);
                    auto it = info.opStage.find(addr.id.v);
                    if (addr.block == block.id &&
                        it != info.opStage.end())
                        stage = std::max(stage, it->second);
                }
            } else {
                for (OpId operand : o.operands) {
                    if (p.op(operand).block != block.id)
                        continue; // Cross-block values arrive by stream.
                    auto it = info.opStage.find(operand.v);
                    if (it != info.opStage.end())
                        stage = std::max(stage, it->second);
                }
            }
            info.opStage[oid.v] = stage;
        }
    }

    VuId
    stageUnit(BlockInfo &info, int stage)
    {
        auto it = info.stages.find(stage);
        if (it != info.stages.end())
            return it->second;
        std::string name = "vcu_" + p.ctrl(info.id).name;
        if (stage > 0)
            name += "_s" + std::to_string(stage);
        VuId id = g().addUnit(VuKind::Compute, name);
        buildCounters(g().unit(id), info);
        engineBlock[id.v] = info.id;
        info.stages[stage] = id;
        info.engines.push_back(id);
        if (!out.blockUnit.count(info.id.v))
            out.blockUnit[info.id.v] = id;
        return id;
    }

    // ------------------------------------------------------------------

    const Accessor &
    accessorOf(OpId oid) const
    {
        const Op &o = p.op(oid);
        for (const auto &a : access[o.tensor.index()].accessors)
            if (a.op == oid)
                return a;
        panic("accessor not found for op ", oid.v);
    }

    /** Access engine for one memory op; wires its address source. */
    VuId
    makeAccessEngine(const Accessor &a, BlockInfo &info,
                     const std::string &name)
    {
        const Tensor &tensor = p.tensor(a.tensor);
        bool isDram = tensor.space == MemSpace::Dram;
        VuId id = g().addUnit(isDram ? VuKind::Ag : VuKind::MemPort, name);
        {
            auto &u = g().unit(id);
            u.tensor = a.tensor;
            u.dir = a.isWrite ? AccessDir::Write : AccessDir::Read;
            buildCounters(u, info);
            if (!isDram) {
                const TensorPlan &plan = plans[a.tensor.index()];
                int shard = plan.staticShard[a.index];
                u.dynamicBank = shard < 0;
                u.shardIndex = std::max(shard, 0);
                u.numShards = plan.numShards;
                u.shardInterleave = plan.interleave;
                u.memUnit = plan.shardVmus[u.shardIndex];
                if (plan.depth > 1)
                    u.rotateLevel = levelAt(p, a.block, plan.rotateScope);
            }
        }

        if (localAddr(a)) {
            auto &u = g().unit(id);
            u.addrLop = emitAffine(u, info, *a.form);
        } else {
            // Dedicated request-slice VCU (the paper's request VCU):
            // recomputes the address expression so the access's
            // request path is independent of response-consuming
            // stages (which would otherwise deadlock against the
            // CMMC token order).
            const Op &memOp = p.op(a.op);
            OpId addrOp = memOp.operands[0];
            VuId req = g().addUnit(VuKind::Compute, name + "_req");
            buildCounters(g().unit(req), info);
            engineBlock[req.v] = a.block;
            info.engines.push_back(req);
            int addrLop = emitSlice(info, req, addrOp);
            dataStream(req, addrLop, firingLevel(info), id,
                       InputRole::Operand, firingLevel(info),
                       name + "_addr", info.vec);
            auto &u = g().unit(id);
            u.addrInput = static_cast<int>(u.inputs.size() - 1);
        }

        engineBlock[id.v] = a.block;
        info.engines.push_back(id);
        out.accessEngine[a.op.v] = id;
        return id;
    }

    /** Copy-elision qualification (rtelm, paper §III-C(b)). */
    bool
    qualifiesCopyElide(const CtrlNode &block) const
    {
        if (!opt.enableRtelm)
            return false;
        std::unordered_map<int32_t, int> uses;
        bool anyWrite = false;
        for (OpId oid : block.ops) {
            const Op &o = p.op(oid);
            if (externallyUsed.count(oid.v))
                return false;
            if (isReduceOp(o.kind))
                return false;
            for (OpId operand : o.operands) {
                if (p.op(operand).block != block.id)
                    return false;
                ++uses[operand.v];
            }
            if (o.kind == OpKind::Write) {
                anyWrite = true;
                const Op &data = p.op(o.operands[1]);
                if (data.kind != OpKind::Read || data.block != block.id)
                    return false;
                if (plans[o.tensor.index()].fifoLower)
                    return false;
                if (!matchAffine(p, o.operands[0]) || !opt.enableXbarElm)
                    return false;
            }
        }
        if (!anyWrite)
            return false;
        for (OpId oid : block.ops) {
            const Op &o = p.op(oid);
            if (o.kind == OpKind::Read) {
                if (uses[oid.v] != 1)
                    return false;
                if (plans[o.tensor.index()].fifoLower)
                    return false;
                if (!matchAffine(p, o.operands[0]) || !opt.enableXbarElm)
                    return false;
            }
            // Remaining value ops are pure address math; with all
            // addresses affine and recomputed at the engines they are
            // dead, so the block keeps no datapath.
        }
        return true;
    }

    void
    lowerCopyBlock(const CtrlNode &block, BlockInfo &info)
    {
        blocks.emplace(block.id.v, std::move(info));
        BlockInfo &bi = blocks.at(block.id.v);
        ++out.stats.copyElidedBlocks;
        for (OpId oid : block.ops) {
            const Op &o = p.op(oid);
            if (o.kind != OpKind::Write)
                continue;
            OpId readOp = o.operands[1];
            const Accessor &ra = accessorOf(readOp);
            const Accessor &wa = accessorOf(oid);
            VuId rd = makeAccessEngine(
                ra, bi, "rd_" + p.tensor(ra.tensor).name + "_" +
                            std::to_string(readOp.v));
            VuId wr = makeAccessEngine(
                wa, bi, "wr_" + p.tensor(wa.tensor).name + "_" +
                            std::to_string(oid.v));
            StreamId sid = g().addStream(StreamKind::Data, rd, wr,
                                         "copy_" + std::to_string(oid.v));
            auto &s = g().stream(sid);
            s.pushLevel = firingLevel(bi);
            s.popLevel = firingLevel(bi);
            s.vec = bi.vec;
            s.depth = opt.spec.pcu.fifoDepth;
            auto &ru = g().unit(rd);
            ru.outputs.push_back({sid, firingLevel(bi), -1});
            ru.respOutput = static_cast<int>(ru.outputs.size() - 1);
            auto &wu = g().unit(wr);
            wu.inputs.push_back(
                {sid, InputRole::Operand, firingLevel(bi), true});
            wu.dataInput = static_cast<int>(wu.inputs.size() - 1);
        }
    }

    void
    lowerBlock(const CtrlNode &block)
    {
        BlockInfo info;
        info.id = block.id;
        info.loops = p.enclosingLoops(block.id);
        info.vec =
            info.loops.empty() ? 1 : p.ctrl(info.loops.back()).vec;
        computeStages(block, info);

        if (qualifiesCopyElide(block)) {
            lowerCopyBlock(block, info);
            return;
        }

        blocks.emplace(block.id.v, std::move(info));
        BlockInfo &bi = blocks.at(block.id.v);
        stageUnit(bi, 0); // Ensure at least one VCU exists.

        for (OpId oid : block.ops) {
            const Op &o = p.op(oid);
            if (!live.count(oid.v))
                continue; // Dead (typically xbar-elm'd address math).
            switch (o.kind) {
              case OpKind::Read:
                lowerRead(bi, oid);
                break;
              case OpKind::Write:
                lowerWrite(bi, oid);
                break;
              default:
                lowerValueOp(bi, oid);
                break;
            }
        }
    }

    void
    lowerValueOp(BlockInfo &info, OpId oid)
    {
        const Op &o = p.op(oid);
        int stage = info.opStage.at(oid.v);
        VuId unit = stageUnit(info, stage);
        dfg::LOp lop;
        lop.kind = o.kind;
        lop.cval = o.cval;
        if (o.kind == OpKind::Iter || isReduceOp(o.kind))
            lop.counter = counterIndex(info, o.ctrl);
        int operands[3] = {-1, -1, -1};
        for (size_t i = 0; i < o.operands.size(); ++i)
            operands[i] = valueIn(info, unit, o.operands[i]);
        lop.a = operands[0];
        lop.b = operands[1];
        lop.c = operands[2];
        auto &vu = g().unit(unit);
        vu.lops.push_back(lop);
        info.lopAt[oid.v] = {stage,
                             static_cast<int>(vu.lops.size() - 1)};
    }

    void
    lowerRead(BlockInfo &info, OpId oid)
    {
        const Op &o = p.op(oid);
        const TensorPlan &plan = plans[o.tensor.index()];
        int stage = info.opStage.at(oid.v);
        VuId unit = stageUnit(info, stage);
        if (plan.fifoLower) {
            auto it = fifoSrc.find(o.tensor.v);
            SARA_ASSERT(it != fifoSrc.end(),
                        "fifo-lowered tensor read before written");
            auto [srcUnit, srcLop] = it->second;
            dataStream(srcUnit, srcLop,
                       static_cast<int>(
                           g().unit(srcUnit).counters.size()),
                       unit, InputRole::Operand, firingLevel(info),
                       "fifo_" + p.tensor(o.tensor).name, info.vec);
            dfg::LOp lop;
            lop.kind = OpKind::Const;
            lop.input =
                static_cast<int>(g().unit(unit).inputs.size() - 1);
            auto &vu = g().unit(unit);
            vu.lops.push_back(lop);
            info.lopAt[oid.v] = {stage,
                                 static_cast<int>(vu.lops.size() - 1)};
            return;
        }
        const Accessor &a = accessorOf(oid);
        VuId port = makeAccessEngine(
            a, info, "rd_" + p.tensor(o.tensor).name + "_" +
                         std::to_string(oid.v));
        StreamId sid = g().addStream(StreamKind::Data, port, unit,
                                     "resp_" + std::to_string(oid.v));
        auto &s = g().stream(sid);
        s.pushLevel = firingLevel(info);
        s.popLevel = firingLevel(info);
        s.vec = info.vec;
        s.depth = opt.spec.pcu.fifoDepth;
        auto &pu = g().unit(port);
        pu.outputs.push_back({sid, firingLevel(info), -1});
        pu.respOutput = static_cast<int>(pu.outputs.size() - 1);
        auto &vu = g().unit(unit);
        vu.inputs.push_back(
            {sid, InputRole::Operand, firingLevel(info), true});
        dfg::LOp lop;
        lop.kind = OpKind::Const;
        lop.input = static_cast<int>(vu.inputs.size() - 1);
        vu.lops.push_back(lop);
        info.lopAt[oid.v] = {stage,
                             static_cast<int>(vu.lops.size() - 1)};
    }

    void
    lowerWrite(BlockInfo &info, OpId oid)
    {
        const Op &o = p.op(oid);
        TensorPlan &plan = plans[o.tensor.index()];
        int stage = info.opStage.at(oid.v);
        VuId unit = stageUnit(info, stage);
        int dataLop = valueIn(info, unit, o.operands[1]);
        if (plan.fifoLower) {
            fifoSrc[o.tensor.v] = {unit, dataLop};
            return;
        }
        if (info.vec > 1 && isReduceOp(p.op(o.operands[1]).kind))
            fatal("op ", oid.v, ": a vectorized reduction may only be "
                  "stored outside its loop (round boundary)");
        const Accessor &a = accessorOf(oid);
        VuId port = makeAccessEngine(
            a, info, "wr_" + p.tensor(o.tensor).name + "_" +
                         std::to_string(oid.v));
        dataStream(unit, dataLop, firingLevel(info), port,
                   InputRole::Operand, firingLevel(info),
                   "wdata_" + std::to_string(oid.v), info.vec);
        auto &pu = g().unit(port);
        pu.dataInput = static_cast<int>(pu.inputs.size() - 1);
    }

    // ------------------------------------------------------------------
    // Control attachment
    // ------------------------------------------------------------------

    void
    checkProducerBranches(CtrlId producerBlock, CtrlId consumerBlock,
                          const char *what) const
    {
        auto pb = branchAncestors(p, producerBlock);
        auto cb = branchAncestors(p, consumerBlock);
        for (const auto &x : pb) {
            bool shared = false;
            for (const auto &y : cb)
                if (x.branch == y.branch && x.inThen == y.inThen)
                    shared = true;
            if (!shared)
                fatal("unsupported: ", what,
                      " is computed under a branch that does not "
                      "enclose its consumer (block ",
                      p.ctrl(producerBlock).name, ")");
        }
    }

    std::pair<VuId, int>
    controlProducer(OpId oid) const
    {
        auto [unit, lop] = producerOf(oid);
        return {unit, lop};
    }

    void
    attachControl()
    {
        for (CtrlId b : p.blocksInOrder()) {
            BlockInfo &info = blocks.at(b.v);
            for (VuId eng : info.engines)
                attachControlTo(eng, info);
        }
    }

    void
    attachControlTo(VuId eng, BlockInfo &info)
    {
        // Dynamic bounds and while conditions per counter.
        for (size_t k = 0; k < info.loops.size(); ++k) {
            const CtrlNode &node = p.ctrl(info.loops[k]);
            if (node.kind == CtrlKind::While) {
                const Op &cond = p.op(node.cond);
                SARA_ASSERT(p.isAncestor(node.id, cond.block),
                            "do-while condition must be computed inside "
                            "the loop body");
                checkProducerBranches(cond.block, node.id,
                                      "a do-while condition");
                auto [srcUnit, srcLop] = controlProducer(node.cond);
                dataStream(srcUnit, srcLop,
                           levelAt(p, cond.block, node.id), eng,
                           InputRole::WhileCond, static_cast<int>(k) + 1,
                           "wcond_" + node.name + "_" +
                               g().unit(eng).name,
                           1);
                auto &uu = g().unit(eng);
                uu.counters[k].whileCondInput =
                    static_cast<int>(uu.inputs.size() - 1);
                continue;
            }
            auto bindBound = [&](const Bound &b, int which) {
                if (b.isConst)
                    return;
                const Op &bop = p.op(b.op);
                int expect =
                    static_cast<int>(p.enclosingLoops(node.id).size());
                SARA_ASSERT(levelAt(p, bop.block, node.id) == expect,
                            "loop bound for ", node.name,
                            " produced at the wrong rate");
                SARA_ASSERT(order[bop.block.index()] <
                                order[node.id.index()],
                            "loop bound must be computed before the "
                            "loop");
                checkProducerBranches(bop.block, info.id, "a loop bound");
                auto [srcUnit, srcLop] = controlProducer(b.op);
                dataStream(srcUnit, srcLop,
                           levelAt(p, bop.block, node.id), eng,
                           InputRole::Bound, static_cast<int>(k),
                           "bound_" + node.name + "_" +
                               g().unit(eng).name,
                           1);
                auto &uu = g().unit(eng);
                int binding = static_cast<int>(uu.inputs.size() - 1);
                if (which == 0)
                    uu.counters[k].minInput = binding;
                else if (which == 1)
                    uu.counters[k].stepInput = binding;
                else
                    uu.counters[k].maxInput = binding;
            };
            bindBound(node.min, 0);
            bindBound(node.step, 1);
            bindBound(node.max, 2);
        }
        // Branch predicates.
        for (const auto &ba : branchAncestors(p, info.id)) {
            const CtrlNode &br = p.ctrl(ba.branch);
            const Op &cond = p.op(br.cond);
            checkProducerBranches(cond.block, info.id,
                                  "a branch condition");
            int expect =
                static_cast<int>(p.enclosingLoops(ba.branch).size());
            SARA_ASSERT(levelAt(p, cond.block, ba.branch) == expect,
                        "branch condition for ", br.name,
                        " produced at the wrong rate");
            auto [srcUnit, srcLop] = controlProducer(br.cond);
            dataStream(srcUnit, srcLop,
                       levelAt(p, cond.block, ba.branch), eng,
                       InputRole::Predicate,
                       levelAt(p, info.id, ba.branch),
                       "pred_" + br.name + "_" + g().unit(eng).name, 1,
                       ba.inThen);
        }
    }

    // ------------------------------------------------------------------
    // CMMC token emission
    // ------------------------------------------------------------------

    void
    emitTokens()
    {
        for (size_t t = 0; t < p.numTensors(); ++t) {
            const auto &ta = access[t];
            if (ta.accessors.empty() || plans[t].fifoLower)
                continue;
            const Tensor &tensor = p.tensor(TensorId(t));

            DepGraphOptions dgo;
            dgo.enforceRar = tensor.space == MemSpace::OnChip;
            dgo.staticShard = plans[t].staticShard;
            dgo.fullSerialize =
                opt.control == ControlScheme::HierarchicalFsm;
            DepGraph graph = buildDepGraph(p, ta, dgo);

            if (plans[t].depth > 1) {
                for (auto &e : graph.edges)
                    if (e.backward && e.loop == plans[t].rotateScope)
                        e.credit = plans[t].depth;
            }

            for (const auto &e : graph.edges)
                if (!e.backward)
                    ++out.stats.forwardEdgesBefore;
            if (opt.enableControlReduction && !dgo.fullSerialize) {
                ReduceStats rs = reduceDepGraph(graph);
                out.stats.forwardEdgesRemoved += rs.forwardRemoved;
                out.stats.backwardEdgesRemoved += rs.backwardRemoved;
            }

            for (const auto &e : graph.edges) {
                const Accessor &src = ta.accessors[e.src];
                const Accessor &dst = ta.accessors[e.dst];
                VuId srcEng = out.accessEngine.at(src.op.v);
                VuId dstEng = out.accessEngine.at(dst.op.v);
                if (srcEng == dstEng)
                    continue;
                CtrlId lca = p.lca(src.block, dst.block);
                int pushLevel = levelAt(p, src.block, lca);
                int popLevel = levelAt(p, dst.block, lca);
                StreamId sid = g().addStream(
                    StreamKind::Token, srcEng, dstEng,
                    std::string(e.backward ? "credit_" : "token_") +
                        tensor.name + "_" + std::to_string(e.src) + "_" +
                        std::to_string(e.dst));
                auto &s = g().stream(sid);
                s.pushLevel = pushLevel;
                s.popLevel = popLevel;
                s.initTokens = e.backward ? e.credit : 0;
                g().unit(srcEng).outputs.push_back({sid, pushLevel, -1});
                g().unit(dstEng).inputs.push_back(
                    {sid, InputRole::Gate, popLevel, true});
                ++out.stats.tokens;
                out.stats.credits += s.initTokens;
            }
        }
        if (opt.control == ControlScheme::HierarchicalFsm) {
            p.forEachCtrl([&](const CtrlNode &node) {
                if (node.kind == CtrlKind::Loop ||
                    node.kind == CtrlKind::While)
                    ++out.stats.controllerUnits;
            });
            emitFsmSequencing();
        }
    }

    /**
     * Vanilla-PC control: the hierarchical FSM executes a scope's
     * children in order (enable after the previous child's done),
     * overlapping across parent iterations only through multibuffers.
     * Model: chain consecutive hyperblocks in program order with
     * LCA-rate tokens and a depth-2 backward credit. CMMC's key win —
     * concurrent execution of independent hyperblocks in the same
     * iteration — is thereby disabled, exactly as in PC.
     */
    void
    emitFsmSequencing()
    {
        auto blocksOrdered = p.blocksInOrder();
        VuId prevEng;
        CtrlId prevBlock;
        for (CtrlId bid : blocksOrdered) {
            auto it = out.blockUnit.find(bid.v);
            if (it == out.blockUnit.end())
                continue; // Copy-elided (not expected in PC mode).
            VuId eng = it->second;
            if (prevEng.valid()) {
                CtrlId lca = p.lca(prevBlock, bid);
                int pushLevel = levelAt(p, prevBlock, lca);
                int popLevel = levelAt(p, bid, lca);
                StreamId fwd = g().addStream(
                    StreamKind::Token, prevEng, eng,
                    "fsm_" + p.ctrl(prevBlock).name + "_" +
                        p.ctrl(bid).name);
                auto &fs = g().stream(fwd);
                fs.pushLevel = pushLevel;
                fs.popLevel = popLevel;
                g().unit(prevEng).outputs.push_back(
                    {fwd, pushLevel, -1});
                g().unit(eng).inputs.push_back(
                    {fwd, InputRole::Gate, popLevel, true});
                StreamId bwd = g().addStream(
                    StreamKind::Token, eng, prevEng,
                    "fsmc_" + p.ctrl(bid).name + "_" +
                        p.ctrl(prevBlock).name);
                auto &bs = g().stream(bwd);
                bs.pushLevel = popLevel;
                bs.popLevel = pushLevel;
                bs.initTokens = 2; // Double-buffered metapipeline.
                g().unit(eng).outputs.push_back({bwd, popLevel, -1});
                g().unit(prevEng).inputs.push_back(
                    {bwd, InputRole::Gate, pushLevel, true});
                out.stats.tokens += 2;
                out.stats.credits += 2;
            }
            prevEng = eng;
            prevBlock = bid;
        }
    }

    // ------------------------------------------------------------------

    Lowering
    run()
    {
        p.verify();
        p.forEachCtrl([&](const CtrlNode &node) {
            if (node.kind == CtrlKind::Loop)
                SARA_ASSERT(node.par == 1,
                            "lowerToVudfg requires a post-unroll "
                            "program (loop ", node.name, " has par ",
                            node.par, ")");
        });
        computeExternalUses();
        computeLiveness();
        planTensors();
        createVmus();
        for (CtrlId b : p.blocksInOrder())
            lowerBlock(p.ctrl(b));
        attachControl();
        emitTokens();
        g().validate();
        return std::move(out);
    }
};

} // namespace

Lowering
lowerToVudfg(const Program &program, const CompilerOptions &options)
{
    Lowerer lowerer(program, options);
    return lowerer.run();
}

} // namespace sara::compiler
