#include "ir/interp.h"

#include <cmath>

#include "support/logging.h"

namespace sara::ir {

double
evalScalar(OpKind kind, const double *args)
{
    switch (kind) {
      case OpKind::Neg: return -args[0];
      case OpKind::Abs: return std::fabs(args[0]);
      case OpKind::Exp: return std::exp(args[0]);
      case OpKind::Log: return std::log(args[0]);
      case OpKind::Sqrt: return std::sqrt(args[0]);
      case OpKind::Sigmoid: return 1.0 / (1.0 + std::exp(-args[0]));
      case OpKind::Tanh: return std::tanh(args[0]);
      case OpKind::Relu: return args[0] > 0.0 ? args[0] : 0.0;
      case OpKind::Floor: return std::floor(args[0]);
      case OpKind::Not: return args[0] == 0.0 ? 1.0 : 0.0;
      case OpKind::Add: return args[0] + args[1];
      case OpKind::Sub: return args[0] - args[1];
      case OpKind::Mul: return args[0] * args[1];
      case OpKind::Div: return args[0] / args[1];
      case OpKind::Min: return std::fmin(args[0], args[1]);
      case OpKind::Max: return std::fmax(args[0], args[1]);
      case OpKind::Mod: return std::fmod(args[0], args[1]);
      case OpKind::And:
        return (args[0] != 0.0 && args[1] != 0.0) ? 1.0 : 0.0;
      case OpKind::Or:
        return (args[0] != 0.0 || args[1] != 0.0) ? 1.0 : 0.0;
      case OpKind::CmpLt: return args[0] < args[1] ? 1.0 : 0.0;
      case OpKind::CmpLe: return args[0] <= args[1] ? 1.0 : 0.0;
      case OpKind::CmpEq: return args[0] == args[1] ? 1.0 : 0.0;
      case OpKind::CmpNe: return args[0] != args[1] ? 1.0 : 0.0;
      case OpKind::CmpGt: return args[0] > args[1] ? 1.0 : 0.0;
      case OpKind::CmpGe: return args[0] >= args[1] ? 1.0 : 0.0;
      case OpKind::Select: return args[0] != 0.0 ? args[1] : args[2];
      case OpKind::Mac: return args[0] * args[1] + args[2];
      default:
        panic("evalScalar: op ", opName(kind), " is not a scalar op");
    }
}

Interpreter::Interpreter(const Program &program) : p_(program)
{
    tensors_.resize(p_.numTensors());
    for (size_t i = 0; i < p_.numTensors(); ++i)
        tensors_[i].assign(p_.tensor(TensorId(i)).size, 0.0);
    values_.assign(p_.numOps(), 0.0);
    iters_.assign(p_.numCtrls(), 0);
    loopReduces_.resize(p_.numCtrls());
    for (size_t i = 0; i < p_.numOps(); ++i) {
        const Op &o = p_.op(OpId(i));
        if (isReduceOp(o.kind))
            loopReduces_[o.ctrl.index()].push_back(o.id);
    }
}

void
Interpreter::setTensor(TensorId id, std::vector<double> data)
{
    SARA_ASSERT(data.size() ==
                    static_cast<size_t>(p_.tensor(id).size),
                "setTensor size mismatch for ", p_.tensor(id).name);
    tensors_[id.index()] = std::move(data);
}

InterpResult
Interpreter::run()
{
    for (CtrlId c : p_.ctrl(p_.root()).children)
        execCtrl(c);
    InterpResult result;
    result.tensors = tensors_;
    result.firings = firings_;
    result.opsExecuted = opsExecuted_;
    return result;
}

int64_t
Interpreter::boundValue(const Bound &b) const
{
    if (b.isConst)
        return b.cval;
    return std::llround(value(b.op));
}

void
Interpreter::execCtrl(CtrlId id)
{
    const CtrlNode &node = p_.ctrl(id);
    switch (node.kind) {
      case CtrlKind::Seq:
        for (CtrlId c : node.children)
            execCtrl(c);
        break;
      case CtrlKind::Loop: {
        // Reduction accumulators over this loop reset at round entry.
        for (OpId r : loopReduces_[id.index()])
            values_[r.index()] = reduceIdentity(p_.op(r).kind);
        int64_t min = boundValue(node.min);
        int64_t max = boundValue(node.max);
        int64_t step = boundValue(node.step);
        SARA_ASSERT(step > 0, "loop ", node.name,
                    " requires a positive step");
        for (int64_t i = min; i < max; i += step) {
            iters_[id.index()] = i;
            for (CtrlId c : node.children)
                execCtrl(c);
        }
        break;
      }
      case CtrlKind::Branch: {
        bool taken = value(node.cond) != 0.0;
        const auto &clause = taken ? node.children : node.elseChildren;
        for (CtrlId c : clause)
            execCtrl(c);
        break;
      }
      case CtrlKind::While: {
        for (OpId r : loopReduces_[id.index()])
            values_[r.index()] = reduceIdentity(p_.op(r).kind);
        uint64_t rounds = 0;
        do {
            iters_[id.index()] = static_cast<int64_t>(rounds);
            for (CtrlId c : node.children)
                execCtrl(c);
            if (++rounds > maxWhileRounds_)
                fatal("do-while ", node.name, " exceeded ",
                      maxWhileRounds_, " rounds; non-terminating?");
        } while (value(node.cond) != 0.0);
        break;
      }
      case CtrlKind::Block:
        execBlock(node);
        break;
    }
}

void
Interpreter::execBlock(const CtrlNode &block)
{
    ++firings_;
    double args[3];
    for (OpId oid : block.ops) {
        const Op &o = p_.op(oid);
        ++opsExecuted_;
        for (size_t a = 0; a < o.operands.size(); ++a)
            args[a] = value(o.operands[a]);
        switch (o.kind) {
          case OpKind::Const:
            values_[oid.index()] = o.cval;
            break;
          case OpKind::Iter:
            values_[oid.index()] =
                static_cast<double>(iters_[o.ctrl.index()]);
            break;
          case OpKind::Read: {
            auto &mem = tensors_[o.tensor.index()];
            int64_t addr = std::llround(args[0]);
            SARA_ASSERT(addr >= 0 &&
                            addr < static_cast<int64_t>(mem.size()),
                        "read OOB on ", p_.tensor(o.tensor).name,
                        " addr ", addr);
            values_[oid.index()] = mem[addr];
            break;
          }
          case OpKind::Write: {
            auto &mem = tensors_[o.tensor.index()];
            int64_t addr = std::llround(args[0]);
            SARA_ASSERT(addr >= 0 &&
                            addr < static_cast<int64_t>(mem.size()),
                        "write OOB on ", p_.tensor(o.tensor).name,
                        " addr ", addr);
            mem[addr] = args[1];
            break;
          }
          case OpKind::RedAdd:
          case OpKind::RedMin:
          case OpKind::RedMax:
          case OpKind::RedMul:
            values_[oid.index()] =
                reduceCombine(o.kind, values_[oid.index()], args[0]);
            break;
          default:
            values_[oid.index()] = evalScalar(o.kind, args);
            break;
        }
    }
}

} // namespace sara::ir
