#ifndef PERFBENCH_STATS_H
#define PERFBENCH_STATS_H

/**
 * @file
 * The benchmark's statistics. Batch workloads summarise each case by
 * its mean op time and combine cases with a geometric mean, because
 * cases differ in cost by up to 100x and a pooled percentile would sit
 * on a gap between cases. A case's mean, not its median: host speed
 * drifts in phases of several seconds, a median picks whichever phase
 * holds most samples, and across runs it jumps between phases (twice
 * the run-to-run spread of the mean, measured). The serve workload
 * pools round trips, but a percentile is only reported when at least
 * ten samples lie beyond it.
 */

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace perfbench {

/** Samples a percentile must have strictly above it to be reported. */
inline constexpr size_t kMinBeyond = 10;

/** Median (mean of the two middle values for an even count); 0 when
 *  empty. */
inline double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    size_t mid = v.size() / 2;
    std::nth_element(v.begin(), v.begin() + mid, v.end());
    double hi = v[mid];
    if (v.size() % 2)
        return hi;
    double lo = *std::max_element(v.begin(), v.begin() + mid);
    return (lo + hi) / 2.0;
}

/**
 * Nearest-rank p-th percentile (0 < p < 100). Refused (nullopt) when
 * fewer than kMinBeyond samples lie above the chosen rank: such a
 * percentile is set by a handful of samples and does not repeat.
 */
inline std::optional<double>
percentile(std::vector<double> v, double p)
{
    if (v.empty() || p <= 0.0 || p >= 100.0)
        return std::nullopt;
    size_t n = v.size();
    auto rank = static_cast<size_t>(std::ceil(p / 100.0 * double(n)));
    rank = std::clamp<size_t>(rank, 1, n);
    if (n - rank < kMinBeyond)
        return std::nullopt;
    std::nth_element(v.begin(), v.begin() + (rank - 1), v.end());
    return v[rank - 1];
}

/** Arithmetic mean; 0 when empty. */
inline double
mean(const std::vector<double> &v)
{
    double sum = 0.0;
    for (double x : v)
        sum += x;
    return v.empty() ? 0.0 : sum / double(v.size());
}

/** Geometric mean of positive values; 0 when empty or any value is
 *  not positive. */
inline double
geomean(const std::vector<double> &v)
{
    if (v.empty())
        return 0.0;
    double logSum = 0.0;
    for (double x : v) {
        if (!(x > 0.0))
            return 0.0;
        logSum += std::log(x);
    }
    return std::exp(logSum / double(v.size()));
}

/** Geometric mean over cases of each case's mean sample. */
inline double
geomeanOfMeans(const std::map<std::string, std::vector<double>> &byCase)
{
    std::vector<double> means;
    for (const auto &[name, samples] : byCase)
        means.push_back(mean(samples));
    return geomean(means);
}

/**
 * Closed-loop request accounting: every attempted operation ends as
 * exactly one of ok, failed (error or output-check mismatch) or
 * rejected (refused by admission control).
 */
struct Accounting
{
    uint64_t attempted = 0;
    uint64_t ok = 0;
    uint64_t failed = 0;
    uint64_t rejected = 0;

    bool balanced() const { return attempted == ok + failed + rejected; }
    /** (failed + rejected) / attempted; 0 when nothing was attempted. */
    double
    failedRatio() const
    {
        return attempted ? double(failed + rejected) / double(attempted)
                         : 0.0;
    }
};

/**
 * Client-side time of a request that neither the server queue nor the
 * service accounts for: round trip - queue - service. The server
 * measures both inside the client's round trip, so a negative value
 * (beyond the response's 12-significant-digit rounding) means the
 * clocks or the response are wrong; nullopt then.
 */
inline std::optional<double>
transportMs(double roundTripMs, double queueMs, double serviceMs)
{
    double t = roundTripMs - queueMs - serviceMs;
    if (t < -1e-6 * std::max(1.0, roundTripMs))
        return std::nullopt;
    return std::max(0.0, t);
}

} // namespace perfbench

#endif // PERFBENCH_STATS_H
