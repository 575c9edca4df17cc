/**
 * @file
 * serve_mixed: an in-process sarad server with two workers and a fresh
 * artifact cache directory. One client thread drives four connections
 * in a closed loop, one outstanding request each, like sweep drivers
 * that wait for every reply. The requests mix warm `run` requests (the
 * interpreter check on, fixed-latency network) over keys compiled in
 * set-up with `compile` requests on keys not yet seen in the run. It is
 * the only workload with queue wait, and it uses the artifact layer
 * both ways: memory hits beside cold compiles with an fsync'd store.
 */

#include <poll.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <memory>
#include <set>
#include <stdexcept>

#include "common.h"
#include "serve/client.h"
#include "serve/server.h"

namespace perfbench {

namespace {

using namespace sara;
namespace fs = std::filesystem;

/** Run classes: the cheapest simulations, so that a run holds enough
 *  round trips for a p99 with ten samples beyond it. */
const std::vector<std::string> kRunWorkloads = {
    "bs", "ms", "kmeans", "gda", "logreg", "sgd", "pr"};
/** Cold compiles: rf compiles in ~35 ms (PnR-bound), slower than every
 *  run class, so the p99 falls inside the compile class. Each scale is
 *  a distinct content key with the same compile work; only building the
 *  inputs (~16 KB per scale step) grows with it. Scales are used in
 *  order 2, 3, ... whatever the seed, so the largest input a run
 *  reaches, and with it the peak resident set, varies only with the
 *  number of requests completed. */
const std::string kCompileWorkload = "rf";
constexpr int kMaxCompileScale = 5000;
/** A block holds every run class kRunsPerBlock times plus
 *  kCompilesPerBlock compiles (~7%): enough compiles that the p99 sits
 *  well inside the compile class, few enough that the largest scale (and
 *  with it the peak resident set) stays small. */
constexpr int kRunsPerBlock = 2;
constexpr int kCompilesPerBlock = 1;
constexpr int kConnections = 4;
constexpr int kWorkers = 2;

struct Planned
{
    serve::Request req;
    size_t cls = 0; ///< Index into kRunWorkloads; size() = compile.
};

/** The seeded request list, generated a block at a time. */
class Plan
{
  public:
    explicit Plan(uint64_t seed) : rng_(seed) {}

    /** Next request, or false when the compile keys are used up. */
    bool
    next(Planned &out)
    {
        if (pos_ == block_.size() && !refill())
            return false;
        out = block_[pos_++];
        out.req.id = std::to_string(seq_++);
        return true;
    }

  private:
    bool
    refill()
    {
        if (nextScale_ + kCompilesPerBlock > kMaxCompileScale)
            return false;
        block_.clear();
        pos_ = 0;
        for (int k = 0; k < kRunsPerBlock; ++k)
            for (size_t c = 0; c < kRunWorkloads.size(); ++c) {
                Planned p;
                p.cls = c;
                p.req.verb = serve::Verb::Run;
                p.req.workload = kRunWorkloads[c];
                p.req.par = kPar;
                p.req.check = true;
                block_.push_back(p);
            }
        for (int k = 0; k < kCompilesPerBlock; ++k) {
            Planned p;
            p.cls = kRunWorkloads.size();
            p.req.verb = serve::Verb::Compile;
            p.req.workload = kCompileWorkload;
            p.req.par = kPar;
            p.req.scale = nextScale_++;
            block_.push_back(p);
        }
        std::shuffle(block_.begin(), block_.end(), rng_);
        return true;
    }

    std::mt19937_64 rng_;
    int nextScale_ = 2;
    std::vector<Planned> block_;
    size_t pos_ = 0;
    uint64_t seq_ = 0;
};

/** What the client saw in one measured phase. */
struct Observed
{
    std::map<std::string, std::vector<double>> roundTripByClass;
    std::vector<double> roundTrip, queue, service, serviceCold, transport;
    std::vector<bool> isCompile; ///< Per roundTrip sample.
    uint64_t ok = 0, hits = 0, deduped = 0, rejected = 0, attempted = 0;
    double wallS = 0.0;

    double throughput() const { return wallS > 0 ? ok / wallS : 0.0; }

    void
    merge(const Observed &o)
    {
        for (const auto &[cls, v] : o.roundTripByClass)
            append(roundTripByClass[cls], v);
        append(roundTrip, o.roundTrip);
        append(queue, o.queue);
        append(service, o.service);
        append(serviceCold, o.serviceCold);
        append(transport, o.transport);
        isCompile.insert(isCompile.end(), o.isCompile.begin(),
                         o.isCompile.end());
        ok += o.ok;
        hits += o.hits;
        deduped += o.deduped;
        rejected += o.rejected;
        attempted += o.attempted;
        wallS += o.wallS;
    }

  private:
    static void
    append(std::vector<double> &to, const std::vector<double> &from)
    {
        to.insert(to.end(), from.begin(), from.end());
    }
};

/** A server with its own cache directory, removed with it. */
struct LiveServer
{
    fs::path dir;
    std::unique_ptr<serve::Server> server;

    explicit LiveServer(const fs::path &d) : dir(d)
    {
        fs::remove_all(dir);
        fs::create_directories(dir);
        serve::ServerOptions so;
        so.socketPath = (dir / "sock").string();
        so.workers = kWorkers;
        so.cacheDir = (dir / "cache").string();
        so.useDiskCache = true;
        server = std::make_unique<serve::Server>(so);
        server->start();
        if (!serve::waitForServer(so.socketPath, 5000))
            throw std::runtime_error("server did not come up");
    }
    ~LiveServer()
    {
        server->requestStop();
        server->wait();
        server.reset();
        std::error_code ec;
        fs::remove_all(dir, ec);
    }
    LiveServer(const LiveServer &) = delete;
    LiveServer &operator=(const LiveServer &) = delete;

    std::string socket() const { return server->socketPath(); }
};

struct Expected
{
    std::string key;
    uint64_t cycles = 0;
};

double
num(const json::Value &v, const char *key)
{
    const json::Value *f = v.find(key);
    if (!f || !f->isNumber())
        throw std::runtime_error(std::string("response lacks ") + key);
    return f->num;
}

class Loop
{
  public:
    Loop(const std::string &socket, const std::vector<Expected> &expected,
         Plan &plan, Report &rep)
        : expected_(expected), plan_(plan), rep_(rep)
    {
        for (int i = 0; i < kConnections; ++i)
            conns_.push_back(std::make_unique<serve::Client>(socket));
    }

    /** Closed loop until `seconds` pass (or `maxRequests` are sent),
     *  then drain the requests in flight. */
    Observed
    run(double seconds, Tracer *tracer, uint64_t maxRequests = UINT64_MAX)
    {
        Observed obs;
        std::vector<Slot> slots(kConnections);
        double t0 = nowMs(), last = t0;
        uint64_t sent = 0;
        auto send = [&](int i) {
            if (nowMs() - t0 >= seconds * 1e3 || sent >= maxRequests ||
                !plan_.next(slots[i].p))
                return;
            ++sent;
            slots[i].busy = true;
            slots[i].sentMs = nowMs();
            slots[i].sentUs = tracer ? tracer->nowUs() : 0.0;
            conns_[i]->send(slots[i].p.req);
        };
        for (int i = 0; i < kConnections; ++i)
            send(i);
        std::vector<pollfd> fds(kConnections);
        for (;;) {
            int busy = 0;
            for (int i = 0; i < kConnections; ++i) {
                fds[i] = {conns_[i]->fd(), short(slots[i].busy ? POLLIN : 0),
                          0};
                busy += slots[i].busy;
            }
            if (!busy)
                break;
            if (::poll(fds.data(), fds.size(), 30000) <= 0)
                throw std::runtime_error("no server response within 30 s");
            for (int i = 0; i < kConnections; ++i) {
                if (!slots[i].busy || !(fds[i].revents & (POLLIN | POLLHUP)))
                    continue;
                auto v = conns_[i]->recv();
                last = nowMs();
                slots[i].busy = false;
                if (!v)
                    throw std::runtime_error("server closed a connection");
                handle(slots[i], *v, last - slots[i].sentMs, tracer, obs);
                send(i);
            }
        }
        obs.wallS = (last - t0) / 1e3;
        return obs;
    }

  private:
    struct Slot
    {
        Planned p;
        bool busy = false;
        double sentMs = 0.0;
        double sentUs = 0.0;
    };

    void
    handle(const Slot &s, const json::Value &v, double rtMs,
           Tracer *tracer, Observed &obs)
    {
        ++obs.attempted;
        ++rep_.acct.attempted;
        const std::string &status = v.at("status").str;
        if (status == "rejected") {
            ++obs.rejected;
            ++rep_.acct.rejected;
            return;
        }
        try {
            check(s.p, v, status);
        } catch (const std::exception &e) {
            rep_.fail(s.p.req.workload + " #" + s.p.req.id + ": " +
                      e.what());
            return;
        }
        double q = num(v, "queue_ms"), svc = num(v, "service_ms");
        auto transport = transportMs(rtMs, q, svc);
        if (!transport) {
            rep_.fail("round trip shorter than queue + service");
            return;
        }
        ++rep_.acct.ok;
        ++obs.ok;
        bool hit = v.at("from_cache").boolean;
        obs.hits += hit;
        obs.deduped += v.at("deduped").boolean;
        obs.roundTrip.push_back(rtMs);
        obs.isCompile.push_back(s.p.req.verb == serve::Verb::Compile);
        obs.roundTripByClass[className(s.p)].push_back(rtMs);
        obs.queue.push_back(q);
        obs.service.push_back(svc);
        obs.transport.push_back(*transport);
        if (!hit)
            obs.serviceCold.push_back(svc);
        if (tracer) {
            // The server's queue wait and service time, from the
            // response, laid out at the end of the client's round trip.
            double end = tracer->nowUs();
            int64_t op = std::stoll(s.p.req.id);
            int root = tracer->add("op", s.sentUs, end, -1, op);
            double svcStart = end - svc * 1e3;
            tracer->add("jobs.queue", svcStart - q * 1e3, svcStart, root, op);
            tracer->add("serve.service", svcStart, end, root, op);
        }
    }

    void
    check(const Planned &p, const json::Value &v, const std::string &status)
    {
        if (status != "ok") {
            const json::Value *err = v.find("error");
            throw std::runtime_error(status + ": " +
                                     (err ? err->str : std::string()));
        }
        const std::string &key = v.at("key").str;
        if (p.req.verb == serve::Verb::Compile) {
            if (!compiledKeys_.insert(key).second)
                throw std::runtime_error("compile key seen twice: " + key);
            return;
        }
        const Expected &e = expected_[p.cls];
        if (key != e.key)
            throw std::runtime_error("key differs from local compile");
        const json::Value *correct = v.find("correct");
        if (!correct || !correct->boolean)
            throw std::runtime_error("interpreter check failed");
        if (uint64_t(num(v, "cycles")) != e.cycles)
            throw std::runtime_error("cycles differ from simulate_warm");
    }

    static std::string
    className(const Planned &p)
    {
        return p.req.verb == serve::Verb::Compile
                   ? "compile:" + p.req.workload
                   : "run:" + p.req.workload;
    }

    std::vector<std::unique_ptr<serve::Client>> conns_;
    const std::vector<Expected> &expected_;
    Plan &plan_;
    Report &rep_;
    std::set<std::string> compiledKeys_;
};

double
requirePercentile(const std::vector<double> &v, double p, Report &rep,
                  const char *what)
{
    auto x = percentile(v, p);
    if (!x) {
        rep.fail(std::string(what) + ": too few samples (" +
                 std::to_string(v.size()) + ") for a percentile");
        return 0.0;
    }
    return *x;
}

} // namespace

Report
runServeMixed(const Options &opt)
{
    Report rep;
    const fs::path base =
        fs::path(".bench_build/perfbench/run") /
        ("serve-" + std::to_string(::getpid()));
    std::vector<Expected> expected;
    std::unique_ptr<LiveServer> live;
    std::vector<double> setups;
    for (int i = 0; i < kSetupReps; ++i) {
        live.reset(); // Tear-down is not set-up.
        double t0 = nowMs();
        // Reference keys and cycles come from simulate_warm's own steps.
        expected.clear();
        for (const auto &w : kRunWorkloads) {
            PackedCase p = compileAndPack(w);
            uint64_t cycles = simulateOp(p, false, 0, nullptr).cycles;
            expected.push_back({p.key, cycles});
        }
        live = std::make_unique<LiveServer>(base / std::to_string(i));
        serve::Client c(live->socket());
        for (size_t k = 0; k < kRunWorkloads.size(); ++k) {
            serve::Request r;
            r.id = "setup" + std::to_string(k);
            r.verb = serve::Verb::Compile;
            r.workload = kRunWorkloads[k];
            r.par = kPar;
            json::Value v = c.call(r);
            if (v.at("status").str != "ok" ||
                v.at("key").str != expected[k].key)
                throw std::runtime_error("set-up compile of " +
                                         kRunWorkloads[k] + " failed");
        }
        setups.push_back((nowMs() - t0) / 1e3);
    }

    Plan plan(opt.seed);
    Loop loop(live->socket(), expected, plan, rep);
    // Warm-up: one block's worth of requests, discarded.
    loop.run(1e9, nullptr,
             kRunsPerBlock * kRunWorkloads.size() + kCompilesPerBlock);

    Observed obs;
    if (!opt.trace) {
        obs = loop.run(opt.seconds, nullptr);
    } else {
        // Untraced-traced-traced-untraced quarters: the compile inputs
        // grow through the run, and a linear drift cancels out of the
        // overhead ratio.
        Tracer t;
        const double q = opt.seconds / 4;
        Observed untraced = loop.run(q, nullptr);
        obs = loop.run(q, &t);
        obs.merge(loop.run(q, &t));
        untraced.merge(loop.run(q, nullptr));
        auto &L = rep.perLayer;
        L["trace.overhead_ratio"] = {untraced.throughput() / obs.throughput(),
                                     "1"};
        L["trace.unattributed_share"] = {t.unattributedShare(), "1"};
        L["serve.queue_ms_p50"] = {median(obs.queue), "ms"};
        L["serve.queue_ms_p99"] = {
            requirePercentile(obs.queue, 99, rep, "queue wait"), "ms"};
        L["serve.service_ms_p50"] = {median(obs.service), "ms"};
        L["serve.service_ms_cold_p50"] = {median(obs.serviceCold), "ms"};
        L["serve.transport_ms_p50"] = {median(obs.transport), "ms"};
        L["serve.hit_ratio"] = {obs.ok ? double(obs.hits) / obs.ok : 0.0,
                                "1"};
        L["serve.deduped"] = {double(obs.deduped), "count"};
        L["serve.rejected_ratio"] = {
            obs.attempted ? double(obs.rejected) / obs.attempted : 0.0, "1"};
        for (const auto &[layer, us] : t.selfUsByLayer())
            rep.selfMs[layer] = us / 1e3;
        rep.traceJson = t.chromeJson();
    }
    live.reset();
    std::error_code ec;
    fs::remove_all(base, ec);

    auto &E = rep.endToEnd;
    E["throughput_ops_s"] = {obs.throughput(), "ops/s"};
    E["case_ms_geomean"] = {geomeanOfMeans(obs.roundTripByClass), "ms"};
    E["latency_p50_ms"] = {median(obs.roundTrip), "ms"};
    if (!opt.trace) {
        double p99 = requirePercentile(obs.roundTrip, 99, rep, "round trip");
        E["latency_p99_ms"] = {p99, "ms"};
        // Which request class the samples beyond the p99 belong to.
        double beyond = 0, compiles = 0;
        for (size_t i = 0; i < obs.roundTrip.size(); ++i)
            if (obs.roundTrip[i] > p99) {
                ++beyond;
                compiles += obs.isCompile[i];
            }
        rep.notes["p99_beyond_samples"] = beyond;
        rep.notes["p99_beyond_compile_share"] = beyond ? compiles / beyond : 0;
    }
    E["setup_s"] = {median(setups), "s"};
    for (size_t c = 0; c <= kRunWorkloads.size(); ++c) {
        std::string name = c < kRunWorkloads.size()
                               ? "run:" + kRunWorkloads[c]
                               : "compile:" + kCompileWorkload;
        const auto &v = obs.roundTripByClass[name];
        rep.detail.push_back(DetailRow{
            name, mean(v), median(v), v.size(),
            c < expected.size() ? expected[c].cycles : 0});
    }
    return rep;
}

} // namespace perfbench
