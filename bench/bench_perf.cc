/**
 * @file
 * Host-throughput microbenchmark for the simulator event core. Unlike
 * the figure binaries (which reproduce *simulated* results), this one
 * measures how fast the simulator itself runs: wall-clock Mcycles/s
 * and events/s per workload, the spurious-wakeup ratio and peak RSS.
 * Each workload compiles once and re-simulates `--reps` times per
 * mode. `host_ms` is the best of the reps (it sheds scheduler noise
 * and drives the throughput columns); `host_ms_median` and
 * `host_ms_iqr` (interquartile range, linear interpolation between
 * order statistics) give the spread a few-percent change must clear.
 * `cpu_ms_median` is the median of the reps' thread CPU time
 * (CLOCK_THREAD_CPUTIME_ID): on a shared host it does not count the
 * time the thread sat descheduled, which wall time does.
 *
 * Sweep points route through the src/jobs pool: `-j N` runs them
 * concurrently (deterministic output order; results land in
 * index-addressed slots). The default is `-j 1` because co-scheduled
 * points perturb each other's wall-times; use -j > 1 when only the
 * deterministic counters matter.
 *
 * Memory units: peak RSS is reported as `peak_rss_kib` in the JSON
 * (getrusage ru_maxrss, which is KiB on Linux) and as MiB (KiB/1024)
 * in the table — binary units throughout, never decimal MB.
 *
 * The deterministic counters (cycles, events, wakeups, spurious) land
 * in BENCH_perf.json, which CI diffs against bench/golden_perf.json;
 * wall-times are reported but never gated.
 *
 *   bench_perf [--reps N] [--workloads mlp,pr,...] [--out FILE.json]
 *              [-j N]
 */

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <sys/resource.h>
#include <time.h>
#include <vector>

#include "bench/bench_common.h"

namespace sara::bench {
namespace {

struct PerfOptions
{
    int reps = 3;
    int jobs = 1; ///< Sweep-point concurrency (wall-times prefer 1).
    std::string out = "BENCH_perf.json";
    std::vector<std::string> workloads = {"mlp", "lstm", "gda",
                                          "logreg", "ms", "pr"};
};

std::vector<std::string>
splitList(const std::string &list)
{
    std::vector<std::string> parts;
    size_t pos = 0;
    while (pos < list.size()) {
        size_t comma = list.find(',', pos);
        if (comma == std::string::npos)
            comma = list.size();
        parts.push_back(list.substr(pos, comma - pos));
        pos = comma + 1;
    }
    return parts;
}

PerfOptions
parseArgs(int argc, char **argv)
{
    PerfOptions opt;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto next = [&]() -> std::string {
            if (i + 1 >= argc)
                fatal("missing value for ", arg);
            return argv[++i];
        };
        if (arg == "--reps")
            opt.reps = std::stoi(next());
        else if (arg == "-j")
            opt.jobs = std::stoi(next());
        else if (arg == "--out")
            opt.out = next();
        else if (arg == "--workloads")
            opt.workloads = splitList(next());
        else
            fatal("unknown option ", arg,
                  " (supported: --reps N, --workloads a,b,c, --out F, "
                  "-j N)");
    }
    if (opt.reps < 1)
        fatal("--reps must be >= 1");
    if (opt.jobs < 0)
        fatal("-j must be >= 0");
    return opt;
}

/** Peak resident set, in KiB (ru_maxrss unit on Linux). This is the
 *  one place the unit is decided; everything downstream (table MiB
 *  column, `peak_rss_kib` JSON field, README) derives from it. */
uint64_t
peakRssKib()
{
    struct rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<uint64_t>(ru.ru_maxrss);
}

/** CPU time the calling thread has used, in ms. The thread clock
 *  counts nanoseconds; getrusage(RUSAGE_THREAD) is tick-adjusted on
 *  Linux and read 0 ms for the 2 ms `ms` reps. */
double
threadCpuMs()
{
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) * 1e3 +
           static_cast<double>(ts.tv_nsec) / 1e6;
}

/** The q-quantile of sorted `xs` (linear interpolation between order
 *  statistics); 0 for an empty sample. */
double
quantile(const std::vector<double> &xs, double q)
{
    if (xs.empty())
        return 0.0;
    double pos = q * static_cast<double>(xs.size() - 1);
    size_t lo = static_cast<size_t>(pos);
    size_t hi = std::min(lo + 1, xs.size() - 1);
    return xs[lo] + (pos - static_cast<double>(lo)) * (xs[hi] - xs[lo]);
}

/** One simulate-only measurement (compile reused via preCompiled). */
struct Measure
{
    sim::SimResult sim;
    double bestMs = 0.0;
    double medianMs = 0.0;
    double iqrMs = 0.0; ///< Interquartile range of the rep wall-times.
    double cpuMedianMs = 0.0; ///< Median thread CPU time of the reps.
};

Measure
simulate(const workloads::Workload &w, runtime::RunConfig rc,
         const runtime::RunOutcome &compiled, bool noc, int reps)
{
    rc.check = false;
    rc.cachingCompiler = nullptr;
    rc.preCompiled = &compiled.compiled;
    rc.sim.useNoc = noc;
    rc.sim.traceFile.clear();
    Measure m;
    std::vector<double> times, cpuTimes;
    for (int r = 0; r < reps; ++r) {
        double c0 = threadCpuMs();
        auto t0 = std::chrono::steady_clock::now();
        auto out = runtime::runWorkload(w, rc);
        auto t1 = std::chrono::steady_clock::now();
        cpuTimes.push_back(threadCpuMs() - c0);
        times.push_back(
            std::chrono::duration<double, std::milli>(t1 - t0).count());
        m.sim = std::move(out.sim);
    }
    std::sort(times.begin(), times.end());
    std::sort(cpuTimes.begin(), cpuTimes.end());
    m.bestMs = times.front();
    m.medianMs = quantile(times, 0.5);
    m.iqrMs = quantile(times, 0.75) - quantile(times, 0.25);
    m.cpuMedianMs = quantile(cpuTimes, 0.5);
    return m;
}

/** Run `fn(i)` over [0, n) through the jobs pool with `threads`
 *  workers; results go into index-addressed slots so output order
 *  never depends on scheduling. */
void
sweep(size_t n, const std::string &prefix, int threads,
      const std::function<void(size_t)> &fn)
{
    jobs::BatchOptions opt;
    opt.threads = threads;
    auto report = jobs::forEachIndex(n, prefix, fn, opt);
    if (!report.allOk())
        fatal("perf sweep '", prefix, "' failed: ",
              report.firstError());
}

int
perfMain(int argc, char **argv)
{
    PerfOptions opt = parseArgs(argc, argv);
    banner("event-core host throughput (wall-clock, not simulated)");

    const size_t nw = opt.workloads.size();

    // Compile every workload once, through the jobs pool.
    std::vector<workloads::Workload> ws(nw);
    std::vector<runtime::RunOutcome> compiled(nw);
    runtime::RunConfig rc;
    rc.check = false;
    sweep(nw, "perf-compile", opt.jobs, [&](size_t i) {
        workloads::WorkloadConfig cfg;
        cfg.par = 8;
        ws[i] = workloads::buildByName(opt.workloads[i], cfg);
        compiled[i] = runtime::runWorkload(ws[i], rc);
    });

    Table table({"app", "mode", "cycles", "ms", "med ms", "iqr ms",
                 "cpu ms", "Mcyc/s", "Mev/s", "wakeups", "spurious%",
                 "rss MiB"});
    BenchJson out("perf");

    // One point per (workload, mode).
    struct Point
    {
        Measure m;
        uint64_t rss = 0;
    };
    std::vector<Point> pts(nw * 2);
    sweep(pts.size(), "perf-sim", opt.jobs, [&](size_t p) {
        size_t i = p / 2;
        bool noc = (p % 2) == 1;
        pts[p].m = simulate(ws[i], rc, compiled[i], noc, opt.reps);
        pts[p].rss = peakRssKib();
    });

    uint64_t totalWake = 0, totalSpur = 0;
    auto ratio = [](uint64_t spur, uint64_t wake) {
        return wake ? static_cast<double>(spur) / static_cast<double>(wake)
                    : 0.0;
    };
    for (size_t p = 0; p < pts.size(); ++p) {
        const std::string &name = opt.workloads[p / 2];
        const char *mode = (p % 2) ? "noc" : "fixed";
        const Measure &m = pts[p].m;
        double sec = m.bestMs / 1e3;
        double mcycS = sec > 0 ? m.sim.cycles / sec / 1e6 : 0.0;
        double mevS = sec > 0 ? m.sim.hostEvents / sec / 1e6 : 0.0;
        double spurRatio = ratio(m.sim.spuriousWakeups, m.sim.wakeups);
        totalWake += m.sim.wakeups;
        totalSpur += m.sim.spuriousWakeups;

        table.addRow({name, mode, std::to_string(m.sim.cycles),
                      Table::fmt(m.bestMs, 2), Table::fmt(m.medianMs, 2),
                      Table::fmt(m.iqrMs, 2), Table::fmt(m.cpuMedianMs, 2),
                      Table::fmt(mcycS, 2),
                      Table::fmt(mevS, 2), std::to_string(m.sim.wakeups),
                      Table::fmt(100.0 * spurRatio, 1),
                      Table::fmt(pts[p].rss / 1024.0, 0)});

        out.beginRow()
            .kv("workload", name)
            .kv("mode", mode)
            .kv("cycles", m.sim.cycles)
            .kv("events", m.sim.hostEvents)
            .kv("wakeups", m.sim.wakeups)
            .kv("spurious", m.sim.spuriousWakeups)
            .kv("host_ms", m.bestMs)
            .kv("host_ms_median", m.medianMs)
            .kv("host_ms_iqr", m.iqrMs)
            .kv("cpu_ms_median", m.cpuMedianMs)
            .kv("mcycles_per_s", mcycS)
            .kv("events_per_s", mevS * 1e6)
            .kv("spurious_ratio", spurRatio)
            .kv("peak_rss_kib", pts[p].rss)
            .endRow();
    }
    std::printf("%s", table.str().c_str());

    std::printf("\nspurious wakeups: %.1f%% (%llu/%llu)\n",
                100.0 * ratio(totalSpur, totalWake),
                static_cast<unsigned long long>(totalSpur),
                static_cast<unsigned long long>(totalWake));

    out.write(opt.out);
    return 0;
}

} // namespace
} // namespace sara::bench

int
main(int argc, char **argv)
{
    return sara::bench::perfMain(argc, argv);
}
