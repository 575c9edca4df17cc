#ifndef PERFBENCH_TRACE_H
#define PERFBENCH_TRACE_H

/**
 * @file
 * In-memory span recorder for the traced run. Spans are recorded by the
 * benchmark around its calls into each SARA layer and written out when
 * the benchmark ends. A span is named "<layer>.<what>"; every operation
 * has one root span named "op", and a layer's self time is its spans'
 * durations minus the part their child spans cover.
 */

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

class Tracer
{
  public:
    struct Span
    {
        std::string name;
        double startUs = 0.0;
        double endUs = 0.0;
        int parent = -1; ///< Index of the enclosing span; -1 at the root.
        int64_t op = -1; ///< Operation the span belongs to.

        double durUs() const { return endUs - startUs; }
    };

    Tracer();

    /** Microseconds since the tracer was created (steady clock). */
    double nowUs() const;

    /** Open a span as a child of the innermost open one. */
    int open(const std::string &name, int64_t op);
    /** Close span `id`, which must be the innermost open one. */
    void close(int id);
    /** Record a finished span with an explicit parent. */
    int add(const std::string &name, double startUs, double endUs,
            int parent, int64_t op);

    const std::vector<Span> &spans() const { return spans_; }

    /** Duration minus the summed durations of its direct children. */
    std::vector<double> selfUs() const;
    /** Self time summed per layer (the name up to the first '.'); the
     *  root "op" spans' self time is reported as "unattributed". */
    std::map<std::string, double> selfUsByLayer() const;
    /** Share of root "op" time that no layer span covers. */
    double unattributedShare() const;

    /** Chrome trace-event JSON (one "X" event per span). */
    std::string chromeJson() const;

  private:
    std::chrono::steady_clock::time_point epoch_;
    std::vector<Span> spans_;
    std::vector<int> stack_;
};

/** Opens a span on construction and closes it on scope exit; a no-op
 *  when the tracer is null (the untraced run). */
class Scoped
{
  public:
    Scoped(Tracer *t, const char *name, int64_t op)
        : t_(t), id_(t ? t->open(name, op) : -1)
    {
    }
    ~Scoped()
    {
        if (t_)
            t_->close(id_);
    }
    Scoped(const Scoped &) = delete;
    Scoped &operator=(const Scoped &) = delete;

    int id() const { return id_; }

  private:
    Tracer *t_;
    int id_;
};

} // namespace perfbench

#endif // PERFBENCH_TRACE_H
