#ifndef SARA_RUNTIME_RUN_H
#define SARA_RUNTIME_RUN_H

/**
 * @file
 * Compile-and-simulate harness shared by the benchmark binaries and
 * the examples: runs a workload through the full SARA pipeline and the
 * cycle-level simulator, optionally validating against the sequential
 * interpreter, and summarizes the metrics the paper's tables report.
 */

#include <string>

#include "artifact/cache.h"
#include "compiler/driver.h"
#include "dram/dram.h"
#include "sim/simulator.h"
#include "workloads/workload.h"

namespace sara::runtime {

struct RunConfig
{
    compiler::CompilerOptions compiler;
    dram::DramSpec dram = dram::DramSpec::hbm2();
    /** Validate final memory against the sequential interpreter. */
    bool check = false;
    sim::SimOptions sim;
    /**
     * Cache-aware compile front-end. When set, runWorkload probes the
     * artifact cache before invoking compileProgram and stores fresh
     * compiles back; identical in-flight compiles across batch threads
     * are deduplicated. Not owned — must outlive the run (shared by
     * every job of a batch).
     */
    artifact::CachingCompiler *cachingCompiler = nullptr;
    /**
     * Pre-compiled artifact to simulate instead of compiling (set by
     * `sarac --load-artifact`). Not owned. Takes precedence over
     * cachingCompiler.
     */
    const compiler::CompileResult *preCompiled = nullptr;
};

struct RunOutcome
{
    compiler::CompileResult compiled;
    sim::SimResult sim;
    bool checked = false;
    bool correct = true;
    bool fromCache = false;     ///< Compile served from the artifact cache.
    std::string artifactKey;    ///< Content key (empty: cache not used).

    /** Runtime at the 1 GHz Plasticine clock. */
    double timeUs() const
    {
        return static_cast<double>(sim.cycles) / 1e3;
    }
    double gflops() const
    {
        return sim.cycles
                   ? static_cast<double>(sim.flops) / sim.cycles
                   : 0.0; // flops/cycle == GFLOPS at 1 GHz.
    }
    double
    dramGBs() const
    {
        return sim.dramAchievedBytesPerCycle; // bytes/cycle == GB/s.
    }
};

/** Run one workload end to end. fatal()s on compile/sim errors. */
RunOutcome runWorkload(const workloads::Workload &w,
                       const RunConfig &config);

/** One-line metric summary for reports. */
std::string summarize(const workloads::Workload &w, const RunOutcome &r);

/**
 * Machine-readable run report (schema "sara-run-report/v1"): compile
 * phase spans and pass stats, resource usage, per-cause stall totals,
 * per-unit activity, FIFO pressure, and DRAM statistics. This is the
 * payload behind `sarac --json` and the bench harness BENCH_*.json
 * trajectory files.
 */
std::string jsonReport(const workloads::Workload &w,
                       const RunConfig &config, const RunOutcome &r);

/** Write `doc` plus a trailing newline to `path`; false when the file
 *  can't be opened or written (the caller decides whether that is
 *  fatal). */
bool writeReportFile(const std::string &path, const std::string &doc);

/** Write jsonReport() to `path`; fatal()s when it can't be written. */
void writeJsonReport(const std::string &path,
                     const workloads::Workload &w, const RunConfig &config,
                     const RunOutcome &r);

} // namespace sara::runtime

#endif // SARA_RUNTIME_RUN_H
