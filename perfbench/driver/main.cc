/**
 * @file
 * perfbench driver: runs one workload and prints, as the last line of
 * standard output, {"correct", "attempted", "failed", "metrics"}. With
 * --trace 0 the metrics are the end-to-end set; with --trace 1 they are
 * the per-layer set, from a separate traced run. Per-case detail rows,
 * the host fingerprint and the traced-run report go to the lines before
 * it and to .bench_build/perfbench/out/.
 *
 *   perfbench --workload compile_cold|simulate_warm|serve_mixed
 *             --seed N --seconds S --trace 0|1
 */

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>

#include "common.h"

using namespace perfbench;

namespace {

struct MetricDef
{
    const char *name;
    const char *unit;
};

/** Printed by every --trace 0 run (BENCHMARK.json "end_to_end"). */
const MetricDef kEndToEnd[] = {
    {"throughput_ops_s", "ops/s"}, {"case_ms_geomean", "ms"},
    {"latency_p50_ms", "ms"},      {"latency_p99_ms", "ms"},
    {"peak_rss_mib", "MiB"},       {"setup_s", "s"},
};

/** Printed by every --trace 1 run (BENCHMARK.json "per_layer"). A
 *  workload that does not exercise a layer reports 0 for it. */
const MetricDef kPerLayer[] = {
    {"compiler.pnr_ms", "ms"},
    {"compiler.pnr_share", "1"},
    {"compiler.unroll_ms", "ms"},
    {"compiler.lower_ms", "ms"},
    {"compiler.partition_ms", "ms"},
    {"compiler.merge_ms", "ms"},
    {"compiler.retime_ms", "ms"},
    {"solver.partition_ms", "ms"},
    {"pnr.route_hops", "count"},
    {"pnr.wirelength", "count"},
    {"compiler.units", "count"},
    {"artifact.key_ms", "ms"},
    {"artifact.encode_ms", "ms"},
    {"artifact.decode_ms", "ms"},
    {"artifact_bytes", "B"},
    {"workloads.build_ms", "ms"},
    {"sim.run_ms.fixed", "ms"},
    {"sim.run_ms.noc", "ms"},
    {"sim.events_per_s", "1/s"},
    {"sim.mcycles_per_s", "Mcycles/s"},
    {"sim.events", "count"},
    {"sim.wakeups", "count"},
    {"sim.spurious_ratio", "1"},
    {"sim_cycles", "cycles"},
    {"noc.hops", "count"},
    {"dram.bytes", "B"},
    {"interp.run_ms", "ms"},
    {"runtime.report_ms", "ms"},
    {"serve.queue_ms_p50", "ms"},
    {"serve.queue_ms_p99", "ms"},
    {"serve.service_ms_p50", "ms"},
    {"serve.service_ms_cold_p50", "ms"},
    {"serve.transport_ms_p50", "ms"},
    {"serve.hit_ratio", "1"},
    {"serve.deduped", "count"},
    {"serve.rejected_ratio", "1"},
    {"trace.overhead_ratio", "1"},
    {"trace.unattributed_share", "1"},
};

[[noreturn]] void
usage(const char *msg)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload "
                 "compile_cold|simulate_warm|serve_mixed --seed N "
                 "--seconds S --trace 0|1\n",
                 msg);
    std::exit(2);
}

Options
parseArgs(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + a).c_str());
        std::string v = argv[++i];
        try {
            if (a == "--workload")
                o.workload = v;
            else if (a == "--seed")
                o.seed = std::stoull(v);
            else if (a == "--seconds")
                o.seconds = std::stod(v);
            else if (a == "--trace")
                o.trace = std::stoi(v) != 0;
            else
                usage(("unknown flag " + a).c_str());
        } catch (const std::logic_error &) {
            usage(("bad value for " + a).c_str());
        }
    }
    if (o.workload.empty())
        usage("--workload is required");
    if (!(o.seconds > 0))
        usage("--seconds must be positive");
    return o;
}

/** Copy `defs` out of `have` into `w` as {"value", "unit"} objects;
 *  metrics a workload left unset are 0. */
void
writeMetrics(sara::json::Writer &w, const MetricDef *defs, size_t n,
             const std::map<std::string, Metric> &have)
{
    w.beginObject();
    for (size_t i = 0; i < n; ++i) {
        auto it = have.find(defs[i].name);
        double v = it == have.end() ? 0.0 : it->second.value;
        if (it != have.end() && it->second.unit != defs[i].unit)
            throw std::logic_error(std::string("unit mismatch for ") +
                                   defs[i].name);
        w.key(defs[i].name).beginObject().kv("value", v).kv(
            "unit", defs[i].unit);
        w.endObject();
    }
    w.endObject();
}

void
checkKnown(const std::map<std::string, Metric> &have, const MetricDef *defs,
           size_t n)
{
    for (const auto &[name, m] : have) {
        bool known = false;
        for (size_t i = 0; i < n; ++i)
            known |= name == defs[i].name;
        if (!known)
            throw std::logic_error("metric not declared: " + name);
    }
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt = parseArgs(argc, argv);
    Report rep;
    try {
        if (opt.workload == "compile_cold")
            rep = runCompileCold(opt);
        else if (opt.workload == "simulate_warm")
            rep = runSimulateWarm(opt);
        else if (opt.workload == "serve_mixed")
            rep = runServeMixed(opt);
        else
            usage(("unknown workload " + opt.workload).c_str());
        rep.endToEnd["peak_rss_mib"] = {peakRssMib(), "MiB"};
        checkKnown(rep.endToEnd, kEndToEnd, std::size(kEndToEnd));
        checkKnown(rep.perLayer, kPerLayer, std::size(kPerLayer));
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s failed: %s\n",
                     opt.workload.c_str(), e.what());
        return 1;
    }

    const uint64_t failed = rep.acct.failed + rep.acct.rejected;
    const bool correct =
        failed == 0 && rep.acct.balanced() && rep.acct.attempted > 0;

    // Detail: per-case rows, host, every metric computed, trace report.
    sara::json::Writer d;
    d.beginObject();
    d.kv("workload", opt.workload).kv("seed", opt.seed);
    d.kv("seconds", opt.seconds).kv("trace", opt.trace);
    d.key("host");
    writeHostFingerprint(d);
    d.kv("attempted", rep.acct.attempted).kv("ok", rep.acct.ok);
    d.kv("failed", rep.acct.failed).kv("rejected", rep.acct.rejected);
    d.kv("failed_ratio", rep.acct.failedRatio());
    d.key("errors").beginArray();
    for (const auto &e : rep.errors)
        d.value(e);
    d.endArray();
    d.key("cases").beginArray();
    std::printf("%-20s %10s %10s %8s %12s %10s\n", "case", "mean_ms",
                "median_ms", "n", "cycles", "bytes");
    for (const auto &row : rep.detail) {
        d.beginObject().kv("name", row.name).kv("mean_ms", row.meanMs);
        d.kv("median_ms", row.medianMs);
        d.kv("samples", static_cast<uint64_t>(row.samples));
        d.kv("cycles", row.cycles).kv("bytes", row.bytes).endObject();
        std::printf("%-20s %10.3f %10.3f %8zu %12llu %10llu\n",
                    row.name.c_str(), row.meanMs, row.medianMs, row.samples,
                    static_cast<unsigned long long>(row.cycles),
                    static_cast<unsigned long long>(row.bytes));
    }
    d.endArray();
    d.key("end_to_end");
    writeMetrics(d, kEndToEnd, std::size(kEndToEnd), rep.endToEnd);
    d.key("per_layer");
    writeMetrics(d, kPerLayer, std::size(kPerLayer), rep.perLayer);
    d.key("notes").beginObject();
    for (const auto &[k, v] : rep.notes)
        d.kv(k, v);
    d.endObject();
    d.key("self_ms").beginObject();
    for (const auto &[layer, ms] : rep.selfMs) {
        d.kv(layer, ms);
        std::printf("self time %-14s %12.3f ms\n", layer.c_str(), ms);
    }
    d.endObject();
    d.endObject();

    namespace fs = std::filesystem;
    fs::path out = ".bench_build/perfbench/out";
    std::error_code ec;
    fs::create_directories(out, ec);
    std::string stem =
        opt.workload + "-seed" + std::to_string(opt.seed) +
        (opt.trace ? "-trace" : "");
    std::ofstream(out / (stem + ".json")) << d.str() << "\n";
    if (!rep.traceJson.empty())
        std::ofstream(out / (stem + ".chrome.json")) << rep.traceJson;
    for (const auto &e : rep.errors)
        std::printf("error: %s\n", e.c_str());
    std::printf("detail: %s\n", (out / (stem + ".json")).c_str());

    sara::json::Writer r;
    r.beginObject();
    r.kv("correct", correct).kv("attempted", rep.acct.attempted);
    r.kv("failed", failed).key("metrics");
    if (opt.trace)
        writeMetrics(r, kPerLayer, std::size(kPerLayer), rep.perLayer);
    else
        writeMetrics(r, kEndToEnd, std::size(kEndToEnd), rep.endToEnd);
    r.endObject();
    std::printf("%s\n", r.str().c_str());
    std::fflush(stdout);
    return correct ? 0 : 1;
}
