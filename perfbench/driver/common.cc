#include "common.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>


namespace perfbench {

namespace {

constexpr size_t kMaxErrors = 8;

} // namespace

void
Report::fail(const std::string &msg)
{
    ++acct.failed;
    if (errors.size() < kMaxErrors)
        errors.push_back(msg);
}

double
nowMs()
{
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

double
timeSetup(const std::function<void()> &fn, int reps)
{
    std::vector<double> s;
    for (int i = 0; i < reps; ++i) {
        double t0 = nowMs();
        fn();
        s.push_back((nowMs() - t0) / 1e3);
    }
    return median(s);
}

double
peakRssMib()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_maxrss) / 1024.0; // ru_maxrss is KiB on Linux.
}

void
writeHostFingerprint(sara::json::Writer &w)
{
    std::string cpu = "unknown";
    std::ifstream in("/proc/cpuinfo");
    for (std::string line; std::getline(in, line);) {
        if (line.rfind("model name", 0) == 0) {
            auto colon = line.find(':');
            if (colon != std::string::npos)
                cpu = line.substr(line.find_first_not_of(' ', colon + 1));
            break;
        }
    }
    w.beginObject()
        .kv("nproc", static_cast<int>(std::thread::hardware_concurrency()))
        .kv("cpu_model", cpu)
        .kv("build_type", PERFBENCH_BUILD_TYPE)
        .kv("compiler", __VERSION__)
        .endObject();
}

std::map<std::pair<std::string, std::string>, uint64_t>
loadGoldenCycles(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        throw std::runtime_error("cannot read golden cycles " + path);
    std::stringstream ss;
    ss << in.rdbuf();
    sara::json::Value doc = sara::json::parse(ss.str());
    std::map<std::pair<std::string, std::string>, uint64_t> out;
    for (const auto &row : doc.at("rows").arr)
        out[{row.at("workload").str, row.at("mode").str}] =
            static_cast<uint64_t>(row.at("cycles").num);
    return out;
}

Batch::Batch(std::vector<std::string> cases, OpFn op, uint64_t seed)
    : cases_(std::move(cases)), op_(std::move(op)), rng_(seed),
      opMs_(cases_.size())
{
}

void
Batch::round(Tracer *tracer, Report &rep, bool timed)
{
    std::vector<size_t> order(cases_.size());
    for (size_t i = 0; i < order.size(); ++i)
        order[i] = i;
    std::shuffle(order.begin(), order.end(), rng_);
    for (size_t c : order) {
        int64_t id = nextOp_++;
        opCase_[id] = c;
        ++rep.acct.attempted;
        double t0 = nowMs();
        try {
            Scoped span(tracer, "op", id);
            op_(c, id, tracer);
        } catch (const std::exception &e) {
            rep.fail(cases_[c] + ": " + e.what());
            continue;
        }
        ++rep.acct.ok;
        if (timed) {
            opMs_[c].push_back(nowMs() - t0);
            ++total_.ops;
        }
    }
}

void
Batch::warmUp(Report &rep)
{
    round(nullptr, rep, false);
}

Batch::Rate
Batch::measure(double seconds, Tracer *tracer, Report &rep)
{
    uint64_t ops0 = total_.ops;
    double t0 = nowMs();
    do {
        round(tracer, rep, true);
    } while (nowMs() - t0 < seconds * 1e3);
    Rate r{total_.ops - ops0, (nowMs() - t0) / 1e3};
    total_.wallS += r.wallS;
    return r;
}

double
Batch::layerMs(const Tracer &t, const std::string &span,
               const std::function<bool(size_t)> &pick) const
{
    std::map<int64_t, double> perOp;
    for (const auto &s : t.spans())
        if (s.name == span)
            perOp[s.op] += s.durUs() / 1e3;
    std::vector<std::vector<double>> byCase(cases_.size());
    for (const auto &[op, ms] : perOp)
        byCase[opCase_.at(op)].push_back(ms);
    double total = 0.0;
    for (size_t c = 0; c < cases_.size(); ++c)
        if (!pick || pick(c))
            total += mean(byCase[c]);
    return total;
}

void
Batch::summarize(Report &rep, double setupS) const
{
    std::vector<double> means;
    for (size_t c = 0; c < cases_.size(); ++c) {
        means.push_back(mean(opMs_[c]));
        rep.detail.push_back(DetailRow{cases_[c], means.back(),
                                       median(opMs_[c]), opMs_[c].size()});
    }
    rep.endToEnd["throughput_ops_s"] = {throughput(), "ops/s"};
    rep.endToEnd["case_ms_geomean"] = {geomean(means), "ms"};
    // No pooled percentiles: cases differ in cost by up to 100x.
    rep.endToEnd["latency_p50_ms"] = {median(means), "ms"};
    rep.endToEnd["latency_p99_ms"] = {
        *std::max_element(means.begin(), means.end()), "ms"};
    rep.endToEnd["setup_s"] = {setupS, "s"};
}

void
runBatch(const Options &opt, Batch &batch, double setupS, Report &rep,
         const std::function<void(const Tracer &, Report &)> &layers)
{
    batch.warmUp(rep);
    if (!opt.trace) {
        batch.measure(opt.seconds, nullptr, rep);
        batch.summarize(rep, setupS);
        return;
    }
    Tracer t;
    const double q = opt.seconds / 4;
    Batch::Rate untraced = batch.measure(q, nullptr, rep);
    Batch::Rate traced = batch.measure(q, &t, rep);
    traced += batch.measure(q, &t, rep);
    untraced += batch.measure(q, nullptr, rep);
    batch.summarize(rep, setupS);
    rep.perLayer["trace.overhead_ratio"] = {untraced.perS() / traced.perS(),
                                            "1"};
    rep.perLayer["trace.unattributed_share"] = {t.unattributedShare(), "1"};
    for (const auto &[layer, us] : t.selfUsByLayer())
        rep.selfMs[layer] = us / 1e3;
    rep.traceJson = t.chromeJson();
    layers(t, rep);
}

} // namespace perfbench
