#include "dfg/vudfg.h"

#include <map>
#include <sstream>

#include "support/logging.h"

namespace sara::dfg {

VuId
Vudfg::addUnit(VuKind kind, const std::string &name)
{
    VUnit u;
    u.id = VuId(units_.size());
    u.kind = kind;
    u.name = name.empty() ? ("vu" + std::to_string(u.id.v)) : name;
    units_.push_back(std::move(u));
    return units_.back().id;
}

StreamId
Vudfg::addStream(StreamKind kind, VuId src, VuId dst,
                 const std::string &name)
{
    Stream s;
    s.id = StreamId(streams_.size());
    s.kind = kind;
    s.src = src;
    s.dst = dst;
    if (name.empty()) {
        s.name = "s";
        s.name += std::to_string(s.id.v);
    } else {
        s.name = name;
    }
    streams_.push_back(s);
    return streams_.back().id;
}

std::vector<StreamId>
Vudfg::inStreams(VuId id) const
{
    std::vector<StreamId> out;
    for (const auto &s : streams_)
        if (s.dst == id)
            out.push_back(s.id);
    return out;
}

std::vector<StreamId>
Vudfg::outStreams(VuId id) const
{
    std::vector<StreamId> out;
    for (const auto &s : streams_)
        if (s.src == id)
            out.push_back(s.id);
    return out;
}

void
Vudfg::validate() const
{
    auto hasStream = [this](StreamId id) {
        return id.valid() && id.index() < streams_.size();
    };
    for (const auto &u : units_) {
        const int n = u.chainSize();
        // Vectorization only on the innermost counter.
        for (int k = 0; k + 1 < n; ++k)
            SARA_ASSERT(u.counters[k].vec == 1,
                        u.name, ": outer counter ", k, " vectorized");
        // LOp operand indices must be backward references.
        for (size_t i = 0; i < u.lops.size(); ++i) {
            const LOp &op = u.lops[i];
            for (int operand : {op.a, op.b, op.c}) {
                SARA_ASSERT(operand < static_cast<int>(i),
                            u.name, ": lop ", i, " forward operand");
            }
            if (op.counter >= 0)
                SARA_ASSERT(op.counter < n,
                            u.name, ": lop counter level out of range");
            if (op.input >= 0)
                SARA_ASSERT(op.input < static_cast<int>(u.inputs.size()),
                            u.name, ": StreamIn input index out of range");
        }
        // Binding levels must be within [0, n].
        for (const auto &in : u.inputs) {
            SARA_ASSERT(in.level >= 0 && in.level <= n,
                        u.name, ": input level out of range");
            SARA_ASSERT(hasStream(in.stream),
                        u.name, ": input binds unknown stream ", in.stream.v);
            const Stream &s = stream(in.stream);
            SARA_ASSERT(s.dst == u.id, u.name, ": foreign input binding");
            SARA_ASSERT(in.level == s.popLevel,
                        u.name, ": binding level != stream popLevel");
        }
        for (size_t oi = 0; oi < u.outputs.size(); ++oi) {
            const auto &out = u.outputs[oi];
            SARA_ASSERT(out.level >= 0 && out.level <= n,
                        u.name, ": output level out of range");
            SARA_ASSERT(hasStream(out.stream), u.name,
                        ": output binds unknown stream ", out.stream.v);
            const Stream &s = stream(out.stream);
            SARA_ASSERT(s.src == u.id, u.name, ": foreign output binding");
            SARA_ASSERT(out.level == s.pushLevel,
                        u.name, ": binding level != stream pushLevel");
            // Response outputs of memory engines are fed by the memory
            // application itself, not by a local op.
            bool isResp = u.kind != VuKind::Compute &&
                          static_cast<int>(oi) == u.respOutput;
            if (s.kind == StreamKind::Data && !isResp)
                SARA_ASSERT(out.lop >= 0 &&
                                out.lop < static_cast<int>(u.lops.size()),
                            u.name, ": data output without source lop");
        }
        if (u.kind == VuKind::MemPort) {
            SARA_ASSERT(u.memUnit.valid() &&
                            u.memUnit.index() < units_.size() &&
                            unit(u.memUnit).kind == VuKind::Memory,
                        u.name, ": MemPort without owning VMU");
            SARA_ASSERT(u.addrLop >= 0 || u.addrInput >= 0,
                        u.name, ": MemPort without address source");
            if (u.dir == AccessDir::Write)
                SARA_ASSERT(u.dataInput >= 0,
                            u.name, ": write port without data input");
        }
        if (u.kind == VuKind::Memory) {
            SARA_ASSERT(u.bufferSize > 0, u.name, ": VMU without storage");
            SARA_ASSERT(u.bufferDepth >= 1, u.name, ": bad multibuffer");
        }
    }
    // Every stream must be bound exactly once on each side.
    std::vector<int> srcBound(streams_.size(), 0), dstBound(streams_.size(), 0);
    for (const auto &u : units_) {
        for (const auto &in : u.inputs)
            ++dstBound[in.stream.index()];
        for (const auto &out : u.outputs)
            ++srcBound[out.stream.index()];
    }
    for (const auto &s : streams_) {
        SARA_ASSERT(srcBound[s.id.index()] == 1,
                    "stream ", s.name, " has ", srcBound[s.id.index()],
                    " source bindings");
        SARA_ASSERT(dstBound[s.id.index()] == 1,
                    "stream ", s.name, " has ", dstBound[s.id.index()],
                    " destination bindings");
    }
}

std::string
Vudfg::summary() const
{
    std::map<VuKind, int> counts;
    for (const auto &u : units_)
        ++counts[u.kind];
    std::ostringstream os;
    os << "VUDFG: " << units_.size() << " units (";
    os << counts[VuKind::Compute] << " VCU, " << counts[VuKind::Memory]
       << " VMU, " << counts[VuKind::MemPort] << " port, "
       << counts[VuKind::Ag] << " AG), " << streams_.size() << " streams";
    return os.str();
}

namespace {

const char *
kindName(VuKind k)
{
    switch (k) {
      case VuKind::Compute: return "VCU";
      case VuKind::Memory: return "VMU";
      case VuKind::MemPort: return "PORT";
      case VuKind::Ag: return "AG";
    }
    return "?";
}

} // namespace

const char *
linkDirName(LinkDir d)
{
    switch (d) {
      case LinkDir::East: return "E";
      case LinkDir::West: return "W";
      case LinkDir::North: return "N";
      case LinkDir::South: return "S";
    }
    return "?";
}

std::string
Vudfg::str() const
{
    std::ostringstream os;
    os << summary() << "\n";
    for (const auto &u : units_) {
        os << kindName(u.kind) << " " << u.name << " [";
        for (size_t k = 0; k < u.counters.size(); ++k) {
            const auto &c = u.counters[k];
            if (k)
                os << ",";
            if (c.isWhile)
                os << "while";
            else if (c.maxInput >= 0)
                os << "dyn";
            else
                os << c.min << ":" << c.max << ":" << c.step;
            if (c.vec > 1)
                os << "x" << c.vec;
        }
        os << "]";
        if (u.kind == VuKind::Memory) {
            os << " size=" << u.bufferSize << " depth=" << u.bufferDepth;
            if (u.numShards > 1)
                os << " shard=" << u.shardIndex << "/" << u.numShards;
        }
        os << " lops=" << u.lops.size() << "\n";
        for (const auto &in : u.inputs) {
            const Stream &s = stream(in.stream);
            os << "  <- " << s.name << " from " << unit(s.src).name
               << " role=" << static_cast<int>(in.role)
               << " pop@" << in.level
               << (s.initTokens ? (" init=" + std::to_string(s.initTokens))
                                : "")
               << "\n";
        }
        for (const auto &out : u.outputs) {
            const Stream &s = stream(out.stream);
            os << "  -> " << s.name << " to " << unit(s.dst).name
               << " push@" << out.level << "\n";
        }
    }
    return os.str();
}

} // namespace sara::dfg
