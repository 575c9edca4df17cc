#include "ir/program.h"

#include <algorithm>
#include <sstream>
#include <unordered_map>

#include "support/logging.h"

namespace sara::ir {

Program::Program()
{
    root_ = addCtrl(CtrlKind::Seq, CtrlId{}, "root");
}

TensorId
Program::addTensor(const std::string &name, MemSpace space, int64_t size)
{
    SARA_ASSERT(size > 0, "tensor ", name, " must have positive size");
    Tensor t;
    t.id = TensorId(tensors_.size());
    t.name = name;
    t.space = space;
    t.size = size;
    tensors_.push_back(t);
    return t.id;
}

CtrlId
Program::addCtrl(CtrlKind kind, CtrlId parent, const std::string &name)
{
    CtrlNode node;
    node.id = CtrlId(ctrls_.size());
    node.kind = kind;
    node.parent = parent;
    if (name.empty()) {
        node.name = "c";
        node.name += std::to_string(node.id.v);
    } else {
        node.name = name;
    }
    ctrls_.push_back(node);
    if (parent.valid())
        ctrls_[parent.index()].children.push_back(node.id);
    return node.id;
}

OpId
Program::addOp(OpKind kind, CtrlId block, std::vector<OpId> operands)
{
    SARA_ASSERT(block.valid() && ctrl(block).isLeaf(),
                "ops may only be added to hyperblocks");
    SARA_ASSERT(static_cast<int>(operands.size()) == opArity(kind),
                "op ", opName(kind), " expects ", opArity(kind),
                " operands, got ", operands.size());
    Op o;
    o.id = OpId(ops_.size());
    o.kind = kind;
    o.block = block;
    o.operands = std::move(operands);
    ops_.push_back(o);
    ctrls_[block.index()].ops.push_back(o.id);
    return o.id;
}

std::vector<CtrlId>
Program::ancestry(CtrlId id) const
{
    std::vector<CtrlId> chain;
    for (CtrlId cur = id; cur.valid(); cur = ctrl(cur).parent)
        chain.push_back(cur);
    std::reverse(chain.begin(), chain.end());
    return chain;
}

CtrlId
Program::lca(CtrlId a, CtrlId b) const
{
    auto ca = ancestry(a);
    auto cb = ancestry(b);
    CtrlId best;
    for (size_t i = 0; i < std::min(ca.size(), cb.size()); ++i) {
        if (ca[i] != cb[i])
            break;
        best = ca[i];
    }
    return best;
}

CtrlId
Program::childToward(CtrlId ancestor, CtrlId descendant) const
{
    if (ancestor == descendant)
        return CtrlId{};
    auto chain = ancestry(descendant);
    for (size_t i = 0; i + 1 < chain.size(); ++i)
        if (chain[i] == ancestor)
            return chain[i + 1];
    return CtrlId{};
}

bool
Program::isAncestor(CtrlId anc, CtrlId node) const
{
    for (CtrlId cur = node; cur.valid(); cur = ctrl(cur).parent)
        if (cur == anc)
            return true;
    return false;
}

std::vector<CtrlId>
Program::enclosingLoops(CtrlId id) const
{
    std::vector<CtrlId> loops;
    for (CtrlId c : ancestry(id)) {
        const auto &node = ctrl(c);
        if (node.kind == CtrlKind::Loop || node.kind == CtrlKind::While)
            if (c != id)
                loops.push_back(c);
    }
    return loops;
}

std::vector<CtrlId>
Program::blocksInOrder() const
{
    std::vector<CtrlId> blocks;
    forEachCtrl([&](const CtrlNode &node) {
        if (node.isLeaf())
            blocks.push_back(node.id);
    });
    return blocks;
}

std::vector<size_t>
Program::programOrder() const
{
    std::vector<size_t> order(ctrls_.size(), 0);
    size_t counter = 0;
    forEachCtrl([&](const CtrlNode &node) { order[node.id.index()] = counter++; });
    return order;
}

void
Program::forEachCtrl(const std::function<void(const CtrlNode &)> &fn) const
{
    std::function<void(CtrlId)> walk = [&](CtrlId id) {
        const auto &node = ctrl(id);
        fn(node);
        for (CtrlId c : node.children)
            walk(c);
        for (CtrlId c : node.elseChildren)
            walk(c);
    };
    walk(root_);
}

CtrlId
Program::cloneSubtree(CtrlId node, CtrlId newParent, std::vector<OpId> *opMap)
{
    std::vector<OpId> omap(ops_.size());
    std::vector<CtrlId> cmap(ctrls_.size());
    clonedOps_.clear();
    cloneRec(node, newParent, omap, cmap);
    remapClonedOps(omap, cmap);
    if (opMap)
        *opMap = omap;
    return cmap[node.index()];
}

void
Program::cloneRec(CtrlId node, CtrlId newParent, std::vector<OpId> &opMap,
                  std::vector<CtrlId> &ctrlMap)
{
    // Deliberately copy (not reference) the source: addCtrl/addOp can
    // reallocate the arenas we are iterating.
    CtrlNode src = ctrl(node);
    CtrlId copy = addCtrl(src.kind, newParent, src.name);
    ctrlMap[node.index()] = copy;
    {
        auto &dst = ctrl(copy);
        dst.min = src.min;
        dst.step = src.step;
        dst.max = src.max;
        dst.par = src.par;
        dst.vec = src.vec;
        dst.cond = src.cond;
    }
    if (src.isLeaf()) {
        for (OpId oid : src.ops) {
            Op o = op(oid);
            OpId nid = addOp(o.kind, copy, o.operands);
            auto &dst = op(nid);
            dst.cval = o.cval;
            dst.ctrl = o.ctrl;
            dst.tensor = o.tensor;
            opMap[oid.index()] = nid;
            clonedOps_.push_back(nid);
        }
    }
    for (CtrlId c : src.children)
        cloneRec(c, copy, opMap, ctrlMap);
    if (!src.elseChildren.empty()) {
        // addCtrl appends every direct child to `children`; clone the
        // else clause the same way, then move the tail into elseChildren.
        size_t nthen = ctrl(copy).children.size();
        for (CtrlId c : src.elseChildren)
            cloneRec(c, copy, opMap, ctrlMap);
        auto &dst = ctrl(copy);
        dst.elseChildren.assign(dst.children.begin() + nthen,
                                dst.children.end());
        dst.children.resize(nthen);
    }
}

void
Program::remapClonedOps(const std::vector<OpId> &opMap,
                        const std::vector<CtrlId> &ctrlMap)
{
    auto remapOp = [&](OpId o) {
        return (o.valid() && o.index() < opMap.size() &&
                opMap[o.index()].valid())
                   ? opMap[o.index()]
                   : o;
    };
    auto remapCtrl = [&](CtrlId c) {
        return (c.valid() && c.index() < ctrlMap.size() &&
                ctrlMap[c.index()].valid())
                   ? ctrlMap[c.index()]
                   : c;
    };
    for (OpId nid : clonedOps_) {
        Op &o = op(nid);
        for (OpId &operand : o.operands)
            operand = remapOp(operand);
        o.ctrl = remapCtrl(o.ctrl);
    }
    // Remap control-node references (bounds, conditions) of cloned nodes.
    for (const CtrlId &c : ctrlMap) {
        if (!c.valid())
            continue;
        CtrlNode &node = ctrl(c);
        if (!node.min.isConst)
            node.min.op = remapOp(node.min.op);
        if (!node.step.isConst)
            node.step.op = remapOp(node.step.op);
        if (!node.max.isConst)
            node.max.op = remapOp(node.max.op);
        if (node.cond.valid())
            node.cond = remapOp(node.cond);
    }
}

void
Program::verify() const
{
    auto order = programOrder();
    forEachCtrl([&](const CtrlNode &node) {
        if (node.kind == CtrlKind::Loop) {
            SARA_ASSERT(node.par >= 1, "loop ", node.name, " bad par");
            if (node.step.isConst)
                SARA_ASSERT(node.step.cval != 0,
                            "loop ", node.name, " zero step");
        }
        if (node.kind == CtrlKind::Branch || node.kind == CtrlKind::While) {
            if (!node.cond.valid())
                fatal("control ", node.name, " missing condition");
        }
        if (node.isLeaf()) {
            SARA_ASSERT(node.children.empty() && node.elseChildren.empty(),
                        "hyperblock ", node.name, " has children");
        } else {
            SARA_ASSERT(node.ops.empty(),
                        "non-leaf ", node.name, " holds ops");
        }
        // Op-level checks.
        for (OpId oid : node.ops) {
            const Op &o = op(oid);
            SARA_ASSERT(o.block == node.id, "op block mismatch");
            for (OpId operand : o.operands) {
                const Op &def = op(operand);
                SARA_ASSERT(def.producesValue(),
                            "operand of ", opName(o.kind),
                            " does not produce a value");
                // Cross-block references must come from earlier blocks.
                if (def.block != o.block) {
                    SARA_ASSERT(order[ctrl(def.block).id.index()] <
                                    order[node.id.index()],
                                "cross-block operand must be defined in an "
                                "earlier block (op ", oid.v, ")");
                }
            }
            if (o.kind == OpKind::Iter) {
                SARA_ASSERT(o.ctrl.valid() &&
                                isAncestor(o.ctrl, node.id) &&
                                (ctrl(o.ctrl).kind == CtrlKind::Loop ||
                                 ctrl(o.ctrl).kind == CtrlKind::While),
                            "iter op must reference an enclosing loop");
            }
            if (isReduceOp(o.kind)) {
                SARA_ASSERT(o.ctrl.valid() && isAncestor(o.ctrl, node.id),
                            "reduce op must reference an enclosing loop");
            }
            if (isMemoryOp(o.kind))
                SARA_ASSERT(o.tensor.valid(), "memory op without tensor");
        }
    });
}

std::string
Program::str() const
{
    std::ostringstream os;
    std::function<void(CtrlId, int)> walk = [&](CtrlId id, int depth) {
        const auto &node = ctrl(id);
        std::string pad(depth * 2, ' ');
        os << pad;
        switch (node.kind) {
          case CtrlKind::Seq:
            os << "seq " << node.name << "\n";
            break;
          case CtrlKind::Loop:
            os << "for " << node.name << " [";
            os << (node.min.isConst ? std::to_string(node.min.cval)
                                    : "dyn");
            os << ":" << (node.max.isConst ? std::to_string(node.max.cval)
                                           : "dyn");
            os << ":" << (node.step.isConst ? std::to_string(node.step.cval)
                                            : "dyn");
            os << "] par=" << node.par << "\n";
            break;
          case CtrlKind::Branch:
            os << "if " << node.name << " (op" << node.cond.v << ")\n";
            break;
          case CtrlKind::While:
            os << "dowhile " << node.name << " (op" << node.cond.v << ")\n";
            break;
          case CtrlKind::Block:
            os << "block " << node.name << "\n";
            for (OpId oid : node.ops) {
                const Op &o = op(oid);
                os << pad << "  op" << o.id.v << " = " << opName(o.kind);
                if (o.kind == OpKind::Const)
                    os << " " << o.cval;
                if (o.kind == OpKind::Iter || isReduceOp(o.kind))
                    os << " @" << ctrl(o.ctrl).name;
                if (isMemoryOp(o.kind))
                    os << " " << tensor(o.tensor).name;
                for (OpId operand : o.operands)
                    os << " op" << operand.v;
                os << "\n";
            }
            break;
        }
        for (CtrlId c : node.children)
            walk(c, depth + 1);
        if (!node.elseChildren.empty()) {
            os << pad << "else\n";
            for (CtrlId c : node.elseChildren)
                walk(c, depth + 1);
        }
    };
    walk(root_, 0);
    return os.str();
}

} // namespace sara::ir
