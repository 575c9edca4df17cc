#ifndef PERFBENCH_COMMON_H
#define PERFBENCH_COMMON_H

/**
 * @file
 * Shared pieces of the three workloads: run options, the report every
 * workload fills, the closed-loop batch runner used by compile_cold and
 * simulate_warm, and the host fingerprint.
 */

#include <cstdint>
#include <functional>
#include <map>
#include <random>
#include <string>
#include <vector>

#include "sim/simulator.h"
#include "stats.h"
#include "support/json.h"
#include "trace.h"

namespace perfbench {

/** Command-line options (see run.py). */
struct Options
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
};

/** Every case is compiled at the parallelization factor bench_perf
 *  uses, so bench/golden_perf.json cycle counts apply. */
inline constexpr int kPar = 8;
/** Set-up is repeated this many times and its median reported. */
inline constexpr int kSetupReps = 5;

struct Metric
{
    double value = 0.0;
    std::string unit;
};

/** One per-case row of the output: lets a reader see which case moved
 *  without adding metrics. */
struct DetailRow
{
    std::string name;
    double meanMs = 0.0;
    double medianMs = 0.0;
    size_t samples = 0;
    uint64_t cycles = 0; ///< Simulated cycles (0 where nothing simulates).
    uint64_t bytes = 0;  ///< Packed artifact bytes (0 where none).
};

/** What a workload hands back to main(). */
struct Report
{
    Accounting acct;
    std::vector<std::string> errors; ///< First few failure messages.
    std::map<std::string, Metric> endToEnd;
    std::map<std::string, Metric> perLayer;
    std::vector<DetailRow> detail;
    /** Self time per layer in the traced run (ms), for the report. */
    std::map<std::string, double> selfMs;
    std::string traceJson; ///< Chrome trace of the traced run.
    /** Further numbers for the detail output only. */
    std::map<std::string, double> notes;

    void fail(const std::string &msg);
};

/** Milliseconds on the steady clock since an arbitrary epoch. */
double nowMs();

/** Median wall seconds of `reps` calls of `fn`. */
double timeSetup(const std::function<void()> &fn, int reps = kSetupReps);

/** Peak resident set of this process, MiB. */
double peakRssMib();

/** nproc, CPU model, build type and compiler, as a JSON object. */
void writeHostFingerprint(sara::json::Writer &w);

/** (workload, mode) -> cycles from bench/golden_perf.json. */
std::map<std::pair<std::string, std::string>, uint64_t>
loadGoldenCycles(const std::string &path);

/**
 * Closed-loop batch runner. Every round runs each case once, in an
 * order shuffled by the seed; rounds repeat until `seconds` have
 * passed (at least one round), so every run covers whole rounds of the
 * same case set. An op throws to report an error or a failed check.
 */
class Batch
{
  public:
    /** op(caseIndex, opId, tracer-or-null). */
    using OpFn = std::function<void(size_t, int64_t, Tracer *)>;

    Batch(std::vector<std::string> cases, OpFn op, uint64_t seed);

    /** Completed ops over wall time. */
    struct Rate
    {
        uint64_t ops = 0;
        double wallS = 0.0;

        double perS() const { return wallS > 0 ? ops / wallS : 0.0; }
        Rate &
        operator+=(const Rate &o)
        {
            ops += o.ops;
            wallS += o.wallS;
            return *this;
        }
    };

    /** One discarded round that also fixes each case's reference
     *  outputs; a failure here is counted like any other. */
    void warmUp(Report &rep);
    /** Measure for `seconds`; spans go to `tracer` when non-null. Op
     *  times accumulate over calls. */
    Rate measure(double seconds, Tracer *tracer, Report &rep);

    /**
     * Summed duration of spans named `span` per op, mean per case,
     * summed over the cases `pick` accepts: the layer's time in one
     * pass over those cases.
     */
    double layerMs(const Tracer &t, const std::string &span,
                   const std::function<bool(size_t)> &pick = {}) const;

    /** Per-case detail rows and the end-to-end batch metrics. */
    void summarize(Report &rep, double setupS) const;
    double throughput() const { return total_.perS(); }

  private:
    void round(Tracer *tracer, Report &rep, bool timed);

    std::vector<std::string> cases_;
    OpFn op_;
    std::mt19937_64 rng_;
    int64_t nextOp_ = 0;
    std::vector<std::vector<double>> opMs_;
    std::map<int64_t, size_t> opCase_;
    Rate total_;
};

/**
 * Warm up, then measure. With tracing on, the run is split into four
 * quarters, untraced-traced-traced-untraced, so that a linear drift in
 * host speed cancels out of trace.overhead_ratio; `layers` turns the
 * traced quarters' spans into per-layer metrics.
 */
void runBatch(const Options &opt, Batch &batch, double setupS, Report &rep,
              const std::function<void(const Tracer &, Report &)> &layers);

/** One workload compiled at kPar with default options and packed. */
struct PackedCase
{
    std::string workload;
    std::string key;
    std::string bytes;
};

/** simulate_warm's set-up step for one workload. */
PackedCase compileAndPack(const std::string &workload);
/** simulate_warm's op: decode, build the inputs, simulate with the
 *  interpreter check, report. Throws when a check fails. */
sara::sim::SimResult simulateOp(const PackedCase &p, bool noc, int64_t id,
                                Tracer *tracer);

/** The three workloads. */
Report runCompileCold(const Options &opt);
Report runSimulateWarm(const Options &opt);
Report runServeMixed(const Options &opt);

} // namespace perfbench

#endif // PERFBENCH_COMMON_H
