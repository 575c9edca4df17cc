#include "trace.h"

#include <stdexcept>

#include "support/json.h"

namespace perfbench {

Tracer::Tracer() : epoch_(std::chrono::steady_clock::now()) {}

double
Tracer::nowUs() const
{
    return std::chrono::duration<double, std::micro>(
               std::chrono::steady_clock::now() - epoch_)
        .count();
}

int
Tracer::open(const std::string &name, int64_t op)
{
    double t = nowUs();
    int id = add(name, t, t, stack_.empty() ? -1 : stack_.back(), op);
    stack_.push_back(id);
    return id;
}

void
Tracer::close(int id)
{
    if (stack_.empty() || stack_.back() != id)
        throw std::logic_error("perfbench: spans must close innermost first");
    stack_.pop_back();
    spans_[id].endUs = nowUs();
}

int
Tracer::add(const std::string &name, double startUs, double endUs,
            int parent, int64_t op)
{
    spans_.push_back(Span{name, startUs, endUs, parent, op});
    return static_cast<int>(spans_.size()) - 1;
}

std::vector<double>
Tracer::selfUs() const
{
    std::vector<double> self(spans_.size());
    for (size_t i = 0; i < spans_.size(); ++i)
        self[i] = spans_[i].durUs();
    for (const Span &s : spans_)
        if (s.parent >= 0)
            self[s.parent] -= s.durUs();
    return self;
}

std::map<std::string, double>
Tracer::selfUsByLayer() const
{
    std::vector<double> self = selfUs();
    std::map<std::string, double> out;
    for (size_t i = 0; i < spans_.size(); ++i) {
        const std::string &n = spans_[i].name;
        std::string layer =
            n == "op" ? "unattributed" : n.substr(0, n.find('.'));
        out[layer] += self[i];
    }
    return out;
}

double
Tracer::unattributedShare() const
{
    std::vector<double> self = selfUs();
    double rootUs = 0.0, uncoveredUs = 0.0;
    for (size_t i = 0; i < spans_.size(); ++i) {
        if (spans_[i].name != "op")
            continue;
        rootUs += spans_[i].durUs();
        uncoveredUs += self[i];
    }
    return rootUs > 0.0 ? uncoveredUs / rootUs : 0.0;
}

std::string
Tracer::chromeJson() const
{
    sara::json::Writer w;
    w.beginObject().key("traceEvents").beginArray();
    for (size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        w.beginObject()
            .kv("name", s.name)
            .kv("ph", "X")
            .kv("pid", 0)
            .kv("tid", s.op)
            .kv("ts", s.startUs)
            .kv("dur", s.durUs());
        w.key("args")
            .beginObject()
            .kv("id", static_cast<int64_t>(i))
            .kv("parent", s.parent)
            .kv("op", s.op)
            .endObject();
        w.endObject();
    }
    w.endArray().endObject();
    return w.str();
}

} // namespace perfbench
